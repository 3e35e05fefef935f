import math

import numpy as np
import pytest

from cforbits import actions
from cforbits.actions import (
    DET_THRESHOLD,
    frequencies,
    k0_hessian,
    nondeg_fixed_energy,
    nondeg_fixed_period,
)
from cforbits.model import KineticLaw, Potential
from cforbits.orbit import radial_profile

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
        V = Potential.homogeneous(1.0, 0.5)
        rep = k0_hessian(CLASSICAL, V, -1.5, 0.2761)
        assert rep.symmetry_defect <= 1e-4 * np.linalg.norm(rep.hessian)

    def test_fd_step_stability(self, monkeypatch):
        # halving the step moves the determinant scale by a few percent at most
        V = Potential.homogeneous(1.0, 0.5)
        a = k0_hessian(CLASSICAL, V, -1.5, 0.2761)
        monkeypatch.setattr(actions, "FD_STEP", 0.5 * actions.FD_STEP)
        b = k0_hessian(CLASSICAL, V, -1.5, 0.2761)
        assert a.scale_fixed_period == pytest.approx(
            b.scale_fixed_period, rel=0.05)
        assert a.scale_fixed_energy == pytest.approx(
            b.scale_fixed_energy, rel=0.05)
