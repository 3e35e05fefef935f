import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cforbits import nondeg
from cforbits.errors import RouteDisagreementError, UnreliableVerdictError
from cforbits.flow import integrate_with_variational
from cforbits.model import HamiltonianSystem, KineticLaw, Perturbation, Potential
from cforbits.nondeg import (
    MIN_GAP,
    _reports,
    _rotated_cycle_power,
    cross_check,
    kernel_dimension,
)
from cforbits.orbit import (
    apogee_state,
    find_closed_orbit,
    radial_profile,
    reflect_apsis,
)

CLASSICAL = KineticLaw.classical()
KEPLER = Potential.kepler()


@pytest.fixture(scope="module")
def kepler_orbit():
    return find_closed_orbit(CLASSICAL, KEPLER, 1, 1, -0.375, L_seed=1.0)


@pytest.fixture(scope="module")
def harmonic_orbit():
    return find_closed_orbit(CLASSICAL, Potential.harmonic(), 1, 2, 1.25,
                             L_seed=1.0)


@pytest.fixture(scope="module")
def alpha_half_orbit():
    return find_closed_orbit(CLASSICAL, Potential.homogeneous(1.0, 0.5),
                             3, 4, -1.5)


@pytest.fixture(scope="module")
def kepler_cc(kepler_orbit):
    return cross_check(kepler_orbit)


@pytest.fixture(scope="module")
def harmonic_cc(harmonic_orbit):
    return cross_check(harmonic_orbit)


@pytest.fixture(scope="module")
def alpha_half_cc(alpha_half_orbit):
    return cross_check(alpha_half_orbit)


class TestKernelDimension:
    def test_zero_matrix(self):
        dim, gap, sv = kernel_dimension(np.zeros((4, 4)))
        assert dim == 4
        assert gap == np.inf

    def test_clean_rank_two(self):
        dim, gap, _ = kernel_dimension(np.diag([1.0, 1.0, 1e-12, 1e-12]))
        assert dim == 2
        assert gap >= 1e10

    def test_full_rank_random(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        dim, gap, _ = kernel_dimension(M)
        assert dim == 0
        assert gap == np.inf

    def test_absolute_floor_on_small_matrices(self):
        # all entries tiny: everything is below rank_tol * max(smax, 1)
        dim, _, _ = kernel_dimension(1e-9 * np.ones((4, 4)))
        assert dim == 4

    def test_custom_rank_tol(self, monkeypatch):
        M = np.diag([1.0, 1e-4])
        monkeypatch.setattr(nondeg, "RANK_TOL", 1e-3)
        assert kernel_dimension(M)[0] == 1
        monkeypatch.setattr(nondeg, "RANK_TOL", 1e-5)
        assert kernel_dimension(M)[0] == 0


class TestFixedPeriodChecks:
    def test_kepler_planar_kernel_three(self, kepler_cc):
        rep = kepler_cc.planar_fp
        assert rep.kernel_dim == 3
        assert rep.verdict == "degenerate"
        assert rep.gap >= 100.0
        assert rep.symplectic_residual <= 1e-8

    def test_kepler_spatial_kernel_five(self, kepler_cc):
        rep = kepler_cc.spatial_fp
        assert rep.kernel_dim == 5
        assert rep.verdict == "degenerate"

    def test_harmonic_kernels_full(self, harmonic_cc):
        assert harmonic_cc.planar_fp.kernel_dim == 4
        assert harmonic_cc.spatial_fp.kernel_dim == 6

    def test_alpha_half_nondegenerate(self, alpha_half_cc):
        pl = alpha_half_cc.planar_fp
        sp = alpha_half_cc.spatial_fp
        assert pl.kernel_dim == 2 and pl.verdict == "nondegenerate"
        assert sp.kernel_dim == 4 and sp.verdict == "nondegenerate"
        assert sp.kernel_dim - pl.kernel_dim == 2

    def test_flow_direction_in_kernel(self, alpha_half_orbit, alpha_half_cc):
        # z'(0) is always a kernel vector of I - P
        rep = alpha_half_cc.planar_fp
        orb = alpha_half_orbit
        v = orb.system.vector_field(0.0, orb.z0)
        r = (np.eye(4) - rep.P) @ v
        assert np.linalg.norm(r) <= 1e-6 * np.linalg.norm(v)

    def test_spatial_contains_planar_block(self, alpha_half_cc):
        # the embedded 6x6 monodromy restricted to the orbit plane must match
        # the 4x4 planar monodromy
        pl = alpha_half_cc.planar_fp
        sp = alpha_half_cc.spatial_fp
        idx = [0, 1, 3, 4]  # x1, x2, p1, p2 inside (x1,x2,x3,p1,p2,p3)
        block = sp.P[np.ix_(idx, idx)]
        assert np.max(np.abs(block - pl.P)) <= 1e-8

    def test_spatial_orbit_gets_the_planar_orbits_reports(self, kepler_cc):
        # the reports are built from the radial profile alone, so the
        # embedded copy of an orbit gets the same ones
        orb = find_closed_orbit(CLASSICAL, KEPLER, 1, 1, -0.375, L_seed=1.0,
                                dim=3)
        cc = cross_check(orb)
        for name in ("planar_fp", "planar_fe", "spatial_fp", "spatial_fe"):
            a, b = getattr(cc, name), getattr(kepler_cc, name)
            assert a.kernel_dim == b.kernel_dim and a.gap == b.gap
            assert np.array_equal(a.matrix, b.matrix)

    def test_multipliers_on_unit_circle(self, alpha_half_cc):
        P = alpha_half_cc.planar_fp.P
        # eigenvalues of the near-defective P carry sqrt-of-roundoff noise
        assert np.max(np.abs(np.abs(np.linalg.eigvals(P)) - 1.0)) <= 1e-4


class TestFixedEnergyChecks:
    def test_kepler_dims(self, kepler_cc):
        assert kepler_cc.planar_fe.kernel_dim == 3
        assert kepler_cc.spatial_fe.kernel_dim == 5

    def test_harmonic_dims(self, harmonic_cc):
        assert harmonic_cc.planar_fe.kernel_dim == 3
        assert harmonic_cc.spatial_fe.kernel_dim == 5

    def test_alpha_half_dims(self, alpha_half_cc):
        pl = alpha_half_cc.planar_fe
        sp = alpha_half_cc.spatial_fe
        assert pl.kernel_dim == 2 and pl.verdict == "nondegenerate"
        assert sp.kernel_dim == 4 and sp.verdict == "nondegenerate"
        assert pl.gap >= 100.0 and sp.gap >= 100.0

    def test_augmented_matrix_shape(self, alpha_half_cc):
        rep = alpha_half_cc.planar_fe
        assert rep.matrix.shape == (5, 5)
        # corner entry is the zero of the bordered structure
        assert rep.matrix[4, 4] == 0.0

    def test_relativistic_kepler(self):
        law = KineticLaw.relativistic(m=1.0, c=1.0)
        orb = find_closed_orbit(law, KEPLER, 4, 3, -0.2,
                                L_seed=math.sqrt(16.0 / 7.0))
        cc = cross_check(orb)
        assert cc.planar_fp.kernel_dim == 2
        assert cc.planar_fe.kernel_dim == 2


class TestCrossCheck:
    def test_agreement_nondegenerate(self, alpha_half_cc):
        rep = alpha_half_cc
        assert rep.fixed_period_verdict == "nondegenerate"
        assert rep.fixed_energy_verdict == "nondegenerate"
        assert rep.planar_fp.kernel_dim == 2
        assert rep.spatial_fe.kernel_dim == 4

    def test_agreement_degenerate(self, kepler_cc):
        assert kepler_cc.fixed_period_verdict == "degenerate"
        assert kepler_cc.fixed_energy_verdict == "degenerate"

    def test_disagreement_raises(self, alpha_half_orbit, monkeypatch):
        # an absurd rank tolerance inflates the monodromy kernel (or wrecks
        # the gap margin); either way the cross-check must refuse to agree
        monkeypatch.setattr(nondeg, "RANK_TOL", 0.9)
        with pytest.raises((RouteDisagreementError, UnreliableVerdictError)):
            cross_check(alpha_half_orbit)


# --- one radial period against the full-period references ---

RELATIVISTIC = KineticLaw.relativistic(m=1.0, c=1.0)
REL_L = math.sqrt(16.0 / 7.0)

# the nondeg_table benchmark pool; its harmonic, alpha_m1, alpha_05, kepler,
# alpha_15 and rel_kepler rows are the acceptance table and its relativistic
# Kepler orbit
POOL = [
    # (name, law, alpha, k, n, h, L_seed)
    ("harmonic", CLASSICAL, -2.0, 1, 2, 1.25, 1.0),
    ("kepler", CLASSICAL, 1.0, 1, 1, -0.375, 1.0),
    ("alpha_m1", CLASSICAL, -1.0, 4, 7, 1.0, None),
    ("alpha_m1_h08", CLASSICAL, -1.0, 4, 7, 0.8, None),
    ("alpha_05", CLASSICAL, 0.5, 3, 4, -1.5, None),
    ("alpha_05_h12", CLASSICAL, 0.5, 3, 4, -1.2, None),
    ("alpha_05_h18", CLASSICAL, 0.5, 3, 4, -1.8, None),
    ("alpha_15", CLASSICAL, 1.5, 3, 2, -0.5, None),
    ("alpha_15_h04", CLASSICAL, 1.5, 3, 2, -0.4, None),
    ("alpha_15_h065", CLASSICAL, 1.5, 3, 2, -0.65, None),
    ("rel_kepler", RELATIVISTIC, 1.0, 4, 3, -0.2, REL_L),
    ("rel_kepler_h018", RELATIVISTIC, 1.0, 4, 3, -0.18, REL_L),
    ("rel_kepler_h022", RELATIVISTIC, 1.0, 4, 3, -0.22, REL_L),
]

REFERENCE_TOL = 1e-14
# the pool with its potentials, and an orbit with a perigee speed of 3.2e3
REFERENCE_ROWS = [
    (name, law, Potential.homogeneous(1.0, alpha), k, n, h, L_seed)
    for name, law, alpha, k, n, h, L_seed in POOL
] + [
    ("levi_civita_13_7", CLASSICAL, Potential.levi_civita(1.0, 0.1), 13, 7,
     -0.55, None),
]


def reference_reports(orbit):
    """Fixed-period and fixed-energy reports of the full-period 4x4
    monodromy and of the integrated 6x6 monodromy of the embedded orbit."""
    sys3 = HamiltonianSystem(orbit.law, orbit.potential, Perturbation.zero(), 3)
    z3 = apogee_state(orbit.profile, 3)
    _, W3 = integrate_with_variational(sys3, z3, 0.0, orbit.T)
    _, W2 = integrate_with_variational(orbit.system, orbit.z0, 0.0, orbit.T)
    return [*_reports(orbit.system, orbit.z0, W2, 0.0),
            *_reports(sys3, z3, W3, 0.0)]


@pytest.mark.parametrize("name, law, alpha, k, n, h, L_seed", POOL,
                         ids=[row[0] for row in POOL])
def test_radial_period_monodromy_matches_full_period(name, law, alpha, k, n,
                                                     h, L_seed):
    orbit = find_closed_orbit(law, Potential.homogeneous(1.0, alpha), k, n, h,
                              L_seed=L_seed)
    cc = cross_check(orbit)
    got = [cc.planar_fp, cc.planar_fe, cc.spatial_fp, cc.spatial_fe]
    ref = reference_reports(orbit)
    assert [r.kernel_dim for r in got] == [r.kernel_dim for r in ref]
    for new, old in zip(got, ref):
        assert new.verdict == old.verdict
        assert new.gap >= MIN_GAP
        assert new.gap >= 0.1 * old.gap
        assert new.radial_defect <= 1e-9
    for new, old in ((cc.planar_fp, ref[0]), (cc.spatial_fp, ref[2])):
        assert np.max(np.abs(new.P - old.P)) <= \
            1e-8 * max(1.0, np.max(np.abs(old.P)))


def _classical_point(alpha, r1, ratio):
    # turning points at r1 < ratio * r1 in closed form; V is decreasing, so
    # the effective potential has one well and (r1, ratio * r1) is its annulus
    V = Potential.homogeneous(1.0, alpha)
    r2 = ratio * r1
    L2 = 2.0 * (V.V(r1) - V.V(r2)) / (r1**-2 - r2**-2)
    return CLASSICAL, V, L2 / (2.0 * r1**2) - V.V(r1), math.sqrt(L2)


# generic points: the apsidal angle is not a rational multiple of pi, so
# Rot(2 n phi) is not the identity
radial_points = st.one_of(
    st.builds(_classical_point, st.sampled_from([-1.0, 0.5, 1.5]),
              st.floats(0.5, 2.0), st.floats(1.5, 3.0)),
    st.builds(lambda h, L: (RELATIVISTIC, KEPLER, h, L),
              st.floats(-0.24, -0.14), st.floats(1.3, 1.6)),
)


@settings(derandomize=True, deadline=None, max_examples=5, database=None)
@given(point=radial_points)
def test_fundamental_matrix_is_a_rotated_power_of_one_radial_period(point):
    # D phi_{n tau}(z0) = Rot(2 n phi) (Rot(-2 phi) W(tau))^n
    law, V, h, L = point
    profile = radial_profile(law, V, h, L)
    sys = HamiltonianSystem(law, V, Perturbation.zero(), 2)
    z0 = apogee_state(profile, 2)
    angle = 2.0 * profile.phi
    for n in (1, 2, 3):
        power, defect = _rotated_cycle_power(sys, z0, profile.tau, angle, n)
        _, W = integrate_with_variational(sys, z0, 0.0, n * profile.tau)
        c, s = math.cos(n * angle), math.sin(n * angle)
        Q = np.kron(np.eye(2), [[c, -s], [s, c]])
        assert np.max(np.abs(Q @ power - W)) <= \
            1e-8 * max(1.0, np.max(np.abs(W)))
        assert defect <= 1e-9


# SciPy raises an rtol below 100 machine epsilons to that floor
@pytest.mark.filterwarnings("ignore:At least one element of `rtol`")
@pytest.mark.parametrize("name, law, V, k, n, h, L_seed", REFERENCE_ROWS,
                         ids=[row[0] for row in REFERENCE_ROWS])
def test_half_period_monodromy_matches_full_period_reference(name, law, V, k,
                                                             n, h, L_seed):
    # W(tau) from [0, tau/2], the perigee step and the reversor errs by at
    # most twice as much as a full-tau solve at the default tolerance, both
    # against a full-tau solve at REFERENCE_TOL
    orbit = find_closed_orbit(law, V, k, n, h, L_seed=L_seed)
    sys, z0, tau = orbit.system, orbit.z0, orbit.profile.tau
    _, W_ref = integrate_with_variational(sys, z0, 0.0, tau, tol=REFERENCE_TOL)
    scale = np.max(np.abs(W_ref))

    def error(W):
        return np.max(np.abs(W - W_ref)) / scale

    W, _ = _rotated_cycle_power(sys, z0, tau, 0.0, 1)
    _, W_full = integrate_with_variational(sys, z0, 0.0, tau)
    assert error(W) <= 2.0 * error(W_full)
    if name == "alpha_05_h12":
        # the mirror image about tau/2 itself, without the perigee step:
        # tau/2 misses the perigee, and the perigee shear shows it
        z, W_half = integrate_with_variational(sys, z0, 0.0, 0.5 * tau)
        R = reflect_apsis(np.eye(4), math.atan2(z[1], z[0])).T
        assert error(R @ np.linalg.solve(W_half, R @ W_half)) > 1e-8


def test_perigee_step_beyond_first_order_raises(alpha_half_orbit):
    # tau/2 is then 5e-5 tau off the perigee, far beyond what a first-order
    # step carries to within the integration tolerance
    orb = alpha_half_orbit
    with pytest.raises(UnreliableVerdictError, match="off the perigee"):
        _rotated_cycle_power(orb.system, orb.z0,
                             orb.profile.tau * (1.0 + 1e-4),
                             2.0 * math.pi * orb.k / orb.n, orb.n)
