import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from perfbench import workloads
from test_nondeg import POOL

from cforbits import orbit
from cforbits.actions import (
    DET_THRESHOLD,
    frequencies,
    k0_hessian,
    nondeg_fixed_energy,
    nondeg_fixed_period,
)
from cforbits.model import KineticLaw, Potential
from cforbits.orbit import (
    _feasible_L_interval,
    find_closed_orbit,
    radial_profile,
)

CLASSICAL = KineticLaw.classical()
KEPLER = Potential.kepler()
HARMONIC = Potential.harmonic()


class TestActionPoint:
    # the action point of a chart point (h, L) is its radial profile:
    # (I1, I2) = (action, L), frequencies (2 pi/tau, 2 phi/tau)

    def test_kepler_radial_action(self):
        # I1 = 1/sqrt(-2h) - L
        for h, L in ((-0.375, 1.0), (-0.25, 0.8), (-0.5, 0.6)):
            p = radial_profile(CLASSICAL, KEPLER, h, L)
            assert p.action == pytest.approx((-2 * h) ** -0.5 - L, abs=1e-8)
            assert p.L == L

    def test_harmonic_radial_action(self):
        # I1 = h/2 - L/2 for V = -r^2/2 (kappa = 1)
        p = radial_profile(CLASSICAL, HARMONIC, 1.25, 1.0)
        assert p.action == pytest.approx(0.125, abs=1e-8)

    def test_frequencies_helper(self):
        p = radial_profile(CLASSICAL, KEPLER, -0.375, 1.0)
        w1, w2 = frequencies(p)
        assert w1 == pytest.approx(2 * math.pi / p.tau)
        assert w2 == pytest.approx(2 * p.phi / p.tau)

    def test_chart_jacobian_identity(self):
        # the chart row k0_hessian uses, dI1/dh = tau/(2 pi) and
        # dI1/dL = -phi/pi, against finite differences of the action
        action = lambda h, L: radial_profile(CLASSICAL, KEPLER, h, L).action
        for h, L in ((-0.375, 1.0), (-0.3, 0.7)):
            p = radial_profile(CLASSICAL, KEPLER, h, L)
            d = 1e-6
            fd_h = (action(h + d, L) - action(h - d, L)) / (2 * d)
            fd_L = (action(h, L + d) - action(h, L - d)) / (2 * d)
            assert p.tau / (2 * math.pi) == pytest.approx(fd_h, abs=1e-6)
            assert -p.phi / math.pi == pytest.approx(fd_L, abs=1e-6)

    def test_chart_jacobian_identity_homogeneous(self):
        V = Potential.homogeneous(1.0, 0.5)
        action = lambda h: radial_profile(CLASSICAL, V, h, 0.3).action
        p = radial_profile(CLASSICAL, V, -1.5, 0.3)
        d = 1e-6
        fd_h = (action(-1.5 + d) - action(-1.5 - d)) / (2 * d)
        assert p.tau / (2 * math.pi) == pytest.approx(fd_h, abs=1e-6)


class TestK0Hessian:
    def test_kepler_hessian_closed_form(self):
        # K0(I) = -1/(2 (I1+I2)^2): hessian = -3 (I1+I2)^-4 * ones(2, 2)
        h, L = -0.375, 1.0
        rep = k0_hessian(CLASSICAL, KEPLER, h, L)
        s = rep.profile.action + rep.profile.L
        want = -3.0 * s ** -4 * np.ones((2, 2))
        assert np.max(np.abs(rep.hessian - want)) <= 1e-5
        assert rep.gradient.tolist() == list(frequencies(rep.profile))

    def test_kepler_degenerate_but_isoenergetic_nondeg_small(self):
        rep = k0_hessian(CLASSICAL, KEPLER, -0.375, 1.0)
        assert nondeg_fixed_period(rep) == "degenerate"
        assert nondeg_fixed_energy(rep) == "degenerate"
        assert rep.scale_fixed_period <= 1e-4

    def test_harmonic_flat(self):
        # K0 = 2 I1 + I2 is linear: hessian is pure fd noise, scales clamp to 0
        rep = k0_hessian(CLASSICAL, HARMONIC, 1.25, 1.0)
        assert rep.scale_fixed_period == 0.0
        assert rep.scale_fixed_energy == 0.0
        assert nondeg_fixed_period(rep) == "degenerate"
        assert nondeg_fixed_energy(rep) == "degenerate"
        assert np.allclose(rep.gradient, [2.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("alpha,h,L", [
        (-1.0, 1.0, 0.4522), (0.5, -1.5, 0.2761), (1.5, -0.5, 0.6765)])
    def test_generic_homogeneous_nondegenerate(self, alpha, h, L):
        V = Potential.homogeneous(1.0, alpha)
        rep = k0_hessian(CLASSICAL, V, h, L)
        assert rep.scale_fixed_period > DET_THRESHOLD
        assert rep.scale_fixed_energy > DET_THRESHOLD
        assert nondeg_fixed_period(rep) == "nondegenerate"
        assert nondeg_fixed_energy(rep) == "nondegenerate"

    def test_relativistic_kepler_nondegenerate(self):
        law = KineticLaw.relativistic(m=1.0, c=1.0)
        L = math.sqrt(16.0 / 7.0)
        rep = k0_hessian(law, KEPLER, -0.2, L)
        assert nondeg_fixed_period(rep) == "nondegenerate"
        assert nondeg_fixed_energy(rep) == "nondegenerate"

    def test_symmetry_defect_small(self):
        # the assembled Hessian is not symmetrized: its raw asymmetry is
        # quadrature error
        V = Potential.homogeneous(1.0, 0.5)
        rep = k0_hessian(CLASSICAL, V, -1.5, 0.2761)
        assert rep.symmetry_defect <= 1e-12 * np.linalg.norm(rep.hessian)

    @pytest.mark.parametrize("law, V, h, L", [
        (CLASSICAL, Potential.homogeneous(1.0, 0.5), -1.5, 0.2761),
        (KineticLaw.relativistic(m=1.0, c=1.0), KEPLER, -0.2,
         math.sqrt(16.0 / 7.0))], ids=["alpha_05", "rel_kepler"])
    def test_complex_step_has_no_step_to_tune(self, law, V, h, L,
                                              monkeypatch):
        # the imaginary step drops out of the derivative: 1e-150 gives the
        # Hessian of 1e-30 to rounding (6.5e-16 relative)
        a = k0_hessian(law, V, h, L)
        monkeypatch.setattr(orbit, "_STEP", 1e-150)
        b = k0_hessian(law, V, h, L)
        assert np.max(np.abs(a.hessian - b.hessian)) <= \
            1e-14 * np.max(np.abs(a.hessian))


def sommerfeld(c, I1, I2):
    """Gradient and Hessian of Sommerfeld's relativistic Kepler energy
    E = m c^2 / sqrt(1 + k^2/N^2) - m c^2, N = I1 + sqrt(I2^2 - k^2),
    k = kappa/c, at m = kappa = 1."""
    k = 1.0 / c
    s = math.sqrt(I2**2 - k**2)
    N = I1 + s
    u = 1.0 + k**2 / N**2
    E_N = c**2 * k**2 * u**-1.5 * N**-3
    E_NN = c**2 * k**2 * (3.0 * k**2 * u**-2.5 * N**-6 - 3.0 * u**-1.5 * N**-4)
    # dN/dI1 = 1, dN/dI2 = I2/s, d2N/dI2^2 = -k^2/s^3
    grad = np.array([E_N, E_N * I2 / s])
    hess = np.array([[E_NN, E_NN * I2 / s],
                     [E_NN * I2 / s, E_NN * (I2 / s)**2 - E_N * k**2 / s**3]])
    return grad, hess


@pytest.mark.parametrize("c, h, L", [
    (1.0, -0.2, math.sqrt(16.0 / 7.0)), (1.0, -0.18, math.sqrt(16.0 / 7.0)),
    (3.0, -0.5, 0.8), (3.0, -0.3, 1.2)])
def test_relativistic_kepler_hessian_is_sommerfelds(c, h, L):
    rep = k0_hessian(KineticLaw.relativistic(m=1.0, c=c), KEPLER, h, L)
    grad, hess = sommerfeld(c, rep.profile.action, L)
    assert np.max(np.abs(rep.gradient - grad)) <= 1e-12 * np.max(np.abs(grad))
    assert np.max(np.abs(rep.hessian - hess)) <= 1e-12 * np.max(np.abs(hess))


def central_difference_hessian(law, V, h, L, step=1e-5):
    """The reference path: K'' from central differences of the frequency
    map at the relative step ``step``, through the same chart."""
    omega = lambda h, L: np.array(frequencies(radial_profile(law, V, h, L)))
    dh, dL = step * (1.0 + abs(h)), step * (1.0 + abs(L))
    Domega = np.column_stack([
        (omega(h + dh, L) - omega(h - dh, L)) / (2.0 * dh),
        (omega(h, L + dL) - omega(h, L - dL)) / (2.0 * dL)])
    p = radial_profile(law, V, h, L)
    DI = np.array([[p.tau / (2.0 * math.pi), -p.phi / math.pi], [0.0, 1.0]])
    return Domega @ np.linalg.inv(DI)


def reference_error(law, V, h, L):
    """|K'' - central-difference K''| over max(|K''|, |omega|/max(I))."""
    rep = k0_hessian(law, V, h, L)
    p = rep.profile
    scale = max(np.max(np.abs(rep.hessian)),
                np.max(np.abs(rep.gradient)) / max(abs(p.action), abs(p.L)))
    ref = central_difference_hessian(law, V, h, L)
    return np.max(np.abs(rep.hessian - ref)) / scale


@pytest.fixture(scope="module")
def pool_profiles():
    return {name: find_closed_orbit(law, Potential.homogeneous(1.0, alpha),
                                    k, n, h, L_seed=L_seed).profile
            for name, law, alpha, k, n, h, L_seed in POOL}


@pytest.mark.parametrize("name, law, alpha", [row[:3] for row in POOL],
                         ids=[row[0] for row in POOL])
def test_pool_hessian_against_central_differences(name, law, alpha,
                                                  pool_profiles):
    p = pool_profiles[name]
    assert reference_error(law, Potential.homogeneous(1.0, alpha), p.h,
                           p.L) <= 1e-6


@pytest.mark.parametrize("name, law, alpha",
                         [row[:3] for row in POOL if row[1] == CLASSICAL],
                         ids=[row[0] for row in POOL if row[1] == CLASSICAL])
def test_euler_relation_on_homogeneous_rows(name, law, alpha, pool_profiles):
    # K0 is homogeneous of degree beta = -2 alpha/(2 - alpha) in the actions,
    # so K''.I = (beta - 1) omega
    p = pool_profiles[name]
    rep = k0_hessian(law, Potential.homogeneous(1.0, alpha), p.h, p.L,
                     profile=p)
    beta = -2.0 * alpha / (2.0 - alpha)
    lhs = rep.hessian @ np.array([p.action, p.L])
    assert np.max(np.abs(lhs - (beta - 1.0) * rep.gradient)) <= \
        1e-13 * np.max(np.abs(rep.gradient))


def test_scales_are_invariant_under_the_homogeneity_scaling():
    # the orbits of a homogeneous potential at two energies are images of
    # each other under a scaling of (x, p, t), which multiplies the Hessian
    # by one factor and the frequencies by another, so the normalized
    # determinants agree; the chart's determinant tau/(2 pi) is regular
    # however small tau is, 2.5e-12 at h = -1e10
    V = Potential.homogeneous(1.0, 1.5)
    reps = []
    for h in (-0.5, -1e10):
        p = find_closed_orbit(CLASSICAL, V, 3, 2, h).profile
        reps.append(k0_hessian(CLASSICAL, V, h, p.L, profile=p))
    assert reps[1].profile.tau < 3e-12
    for name in ("scale_fixed_period", "scale_fixed_energy"):
        assert getattr(reps[1], name) == pytest.approx(
            getattr(reps[0], name), rel=1e-9)


# the classical pool rows whose apsidal angle varies: Kepler and the
# harmonic oscillator are left out
VARYING_PHI = [row for row in POOL
               if row[1] == CLASSICAL and row[2] not in (1.0, -2.0)]


@pytest.mark.parametrize("name, law, alpha", [row[:3] for row in VARYING_PHI],
                         ids=[row[0] for row in VARYING_PHI])
def test_mixed_partials_of_the_radial_action(name, law, alpha, pool_profiles):
    # dI1/dh = tau/(2 pi) and dI1/dL = -phi/pi, so
    # d phi/dh = -(1/2) d tau/dL
    J = orbit.radial_jacobian(law, Potential.homogeneous(1.0, alpha),
                              pool_profiles[name])
    assert abs(J[1, 0] + 0.5 * J[0, 1]) <= 1e-12 * abs(J[1, 0])


def _survey_point(triple, h_shift, t):
    # a point of the survey's potential near its energy, at the fraction t
    # of the feasible L interval (the survey finds its orbits at 0.08-0.99)
    law, V = triple.build()
    h = triple.h * (1.0 + h_shift)
    lo, hi = _feasible_L_interval(law, V, h)
    return law, V, h, lo + t * (hi - lo)


@settings(derandomize=True, deadline=None, max_examples=12, database=None)
@given(point=st.builds(
    _survey_point,
    st.sampled_from([t for stratum in workloads.SURVEY_STRATA
                     for t in stratum]),
    st.floats(-0.05, 0.05), st.floats(0.05, 0.95)))
def test_survey_hessian_against_central_differences(point):
    assert reference_error(*point) <= 1e-6
