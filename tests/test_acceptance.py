"""End-to-end acceptance suite.

Covers, in order: the degeneracy classification table for homogeneous
potentials by both verdict routes, the linearization kernel dimensions, the
relativistic Kepler problem, closed-form anchors, numerical hygiene,
continuation into perturbed periodic solutions, the non-relativistic limit,
and route-equivalence across every configuration.
"""
import math
import time

import numpy as np
import pytest

from cforbits.continuation import (
    ShootingProblem,
    continue_fixed_energy,
    continue_fixed_period,
    distance_to_manifold,
    distinct_results,
    multistart,
)
from cforbits.flow import integrate, integrate_with_variational
from cforbits.model import (
    HamiltonianSystem,
    KineticLaw,
    Perturbation,
    Potential,
)
from cforbits.nondeg import cross_check
from cforbits.orbit import (
    find_closed_orbit,
    manifold_samples,
    radial_profile,
)
from test_model import field_jacobian, max_drift

CLASSICAL = KineticLaw.classical()


# one eccentric k:n orbit per homogeneity exponent; the harmonic (-2) and
# Kepler (1) rows are the degenerate exceptions of the classification
TABLE = [
    # (key, alpha, k, n, h, L_seed, fixed-period verdict, planar, spatial)
    ("harmonic", -2.0, 1, 2, 1.25, 1.0, "degenerate", 4, 6),
    ("alpha_m1", -1.0, 4, 7, 1.0, None, "nondegenerate", 2, 4),
    ("alpha_05", 0.5, 3, 4, -1.5, None, "nondegenerate", 2, 4),
    ("kepler", 1.0, 1, 1, -0.375, 1.0, "degenerate", 3, 5),
    ("alpha_15", 1.5, 3, 2, -0.5, None, "nondegenerate", 2, 4),
]


@pytest.fixture(scope="module")
def table_orbits():
    orbits = {}
    for key, alpha, k, n, h, L_seed, _, _, _ in TABLE:
        V = Potential.homogeneous(1.0, alpha)
        orbits[key] = find_closed_orbit(CLASSICAL, V, k, n, h, L_seed=L_seed)
    return orbits


@pytest.fixture(scope="module")
def table_checks(table_orbits):
    t0 = time.time()
    checks = {key: cross_check(orb) for key, orb in table_orbits.items()}
    checks["_elapsed"] = time.time() - t0
    return checks


@pytest.fixture(scope="module")
def rel_kepler_orbit():
    law = KineticLaw.relativistic(m=1.0, c=1.0)
    return find_closed_orbit(law, Potential.kepler(), 4, 3, -0.2,
                             L_seed=math.sqrt(16.0 / 7.0))


@pytest.fixture(scope="module")
def continuation_orbit():
    # moderately eccentric 4:5 resonance of the alpha = 0.5 potential
    return find_closed_orbit(CLASSICAL, Potential.homogeneous(1.0, 0.5),
                             4, 5, -1.9)


class TestCriterion1DegeneracyTable:
    def test_verdicts_both_routes(self, table_checks):
        for key, *_, want, _, _ in TABLE:
            cc = table_checks[key]
            assert cc.fixed_period_verdict == want, key
            assert cc.fixed_energy_verdict == want, key

    def test_normalized_determinant_separation(self, table_checks):
        for key, *_, want, _, _ in TABLE:
            a = table_checks[key].actions
            if want == "degenerate":
                assert a.scale_fixed_period <= 1e-4, key
                assert a.scale_fixed_energy <= 1e-4, key
            else:
                assert a.scale_fixed_period >= 1e-3, key
                assert a.scale_fixed_energy >= 1e-3, key

    def test_runtime_budget(self, table_checks):
        assert table_checks["_elapsed"] <= 60.0


class TestCriterion2KernelDimensions:
    def test_planar_and_spatial_dims(self, table_checks):
        for key, *_, planar, spatial in TABLE:
            cc = table_checks[key]
            assert cc.planar_fp.kernel_dim == planar, key
            assert cc.spatial_fp.kernel_dim == spatial, key

    def test_singular_value_gap(self, table_checks):
        for key, *_ in TABLE:
            cc = table_checks[key]
            assert cc.planar_fp.gap >= 100.0, key
            assert cc.spatial_fp.gap >= 100.0, key


class TestCriterion3RelativisticKepler:
    def test_nondegenerate_both_routes(self, rel_kepler_orbit):
        cc = cross_check(rel_kepler_orbit)
        assert cc.fixed_period_verdict == "nondegenerate"
        assert cc.fixed_energy_verdict == "nondegenerate"
        assert cc.planar_fp.kernel_dim == 2
        assert cc.spatial_fp.kernel_dim == 4
        assert cc.planar_fe.kernel_dim == 2
        assert cc.spatial_fe.kernel_dim == 4


class TestCriterion4ClosedFormAnchors:
    def test_kepler_apsidal_angle(self):
        p = radial_profile(CLASSICAL, Potential.kepler(), -0.375, 1.0)
        assert abs(p.phi - math.pi) <= 1e-7

    def test_harmonic_apsidal_angle(self):
        p = radial_profile(CLASSICAL, Potential.harmonic(), 1.25, 1.0)
        assert abs(p.phi - math.pi / 2) <= 1e-7

    def test_kepler_period(self):
        for h in (-0.375, -0.25, -0.5):
            p = radial_profile(CLASSICAL, Potential.kepler(), h, 0.8)
            want = 2 * math.pi * (-2 * h) ** -1.5
            assert abs(p.tau - want) / want <= 1e-6

    def test_kepler_radial_action(self):
        h, L = -0.375, 1.0
        p = radial_profile(CLASSICAL, Potential.kepler(), h, L)
        assert abs(p.action - ((-2 * h) ** -0.5 - L)) <= 1e-8

    def test_harmonic_isochrony(self):
        taus = [radial_profile(CLASSICAL, Potential.harmonic(), h, L).tau
                for h in np.linspace(1.0, 3.0, 5)
                for L in np.linspace(0.3, 0.9, 5)]
        assert max(taus) - min(taus) <= 1e-8


class TestCriterion5NumericsHygiene:
    def test_symplectic_residual_on_every_monodromy(self, table_checks,
                                                    rel_kepler_orbit):
        residuals = []
        for key, *_ in TABLE:
            cc = table_checks[key]
            residuals += [cc.planar_fp.symplectic_residual,
                          cc.spatial_fp.symplectic_residual]
        cc = cross_check(rel_kepler_orbit)
        residuals += [cc.planar_fp.symplectic_residual,
                      cc.spatial_fp.symplectic_residual]
        assert max(residuals) <= 1e-8

    def test_invariant_drift_ten_periods(self, table_orbits):
        orb = table_orbits["kepler"]
        traj = integrate(orb.system, orb.z0, 0.0, 10 * orb.T, tol=1e-12)
        energy, mom = max_drift(orb.system, traj)
        assert energy <= 1e-10
        assert np.all(mom <= 1e-10)

    def test_variational_vs_flow_differences(self, table_orbits):
        orb = table_orbits["alpha_05"]
        sys = orb.system
        t1 = 0.3 * orb.T
        _, W = integrate_with_variational(sys, orb.z0, 0.0, t1)
        d = 1e-6
        W_fd = np.zeros((4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = d
            zp = integrate(sys, orb.z0 + e, 0.0, t1)(t1)
            zm = integrate(sys, orb.z0 - e, 0.0, t1)(t1)
            W_fd[:, i] = (zp - zm) / (2 * d)
        assert np.max(np.abs(W - W_fd)) <= 1e-4

    def test_vector_field_second_order_vs_hamiltonian(self):
        from cforbits.flow import symplectic_matrix
        pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 1e-2)
        sys = HamiltonianSystem(CLASSICAL, Potential.kepler(), pert, 3)
        z = np.array([1.1, 0.2, 0.1, 0.05, 0.9, 0.02])
        J = symplectic_matrix(3)
        v = sys.vector_field(0.0, z)

        def fd_field(d):
            g = np.zeros(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = d
                g[i] = (sys.hamiltonian(0.0, z + e)
                        - sys.hamiltonian(0.0, z - e)) / (2 * d)
            return -J @ g

        e1 = np.max(np.abs(fd_field(1e-3) - v))
        e2 = np.max(np.abs(fd_field(5e-4) - v))
        assert 2.5 <= e1 / e2 <= 6.0  # central differences halve to ~1/4

    def test_magnetic_field_identity(self):
        # (DA - DA^T) y must equal (eps B0) x y for the minimal coupling term
        B0 = np.array([0.3, -0.2, 1.1])
        eps = 1e-3
        pert = Perturbation.uniform_magnetic(tuple(B0), eps)
        # the DA the kernels use, read off the Hessian
        sys = HamiltonianSystem(CLASSICAL, Potential.kepler(), pert, 3)
        DA = field_jacobian(sys, np.array([0.7, -0.4, 0.2, 0.3, 0.1, -0.5]))
        rng = np.random.default_rng(11)
        for _ in range(5):
            y = rng.standard_normal(3)
            lhs = (DA - DA.T) @ y
            rhs = np.cross(eps * B0, y)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestCriterion6Continuation:
    EPS = 1e-3

    def _electric_system(self, orbit, eps, profile):
        T_forcing = orbit.T if profile == "cosine" else None
        pert = Perturbation.uniform_electric((1.0, 0.0), eps, profile=profile,
                                             T_forcing=T_forcing)
        return HamiltonianSystem(CLASSICAL, orbit.potential, pert, 2)

    def test_fixed_period_cosine_electric(self, continuation_orbit):
        orb = continuation_orbit
        sys = self._electric_system(orb, self.EPS, "cosine")
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orb.z0,
                               T=orb.T)
        res = continue_fixed_period(prob)
        assert res.accepted
        assert res.residual <= 1e-9
        samples = manifold_samples(orb, 8, 8, group="planar")
        res = distance_to_manifold(res, samples)
        assert res.distance <= 0.1

    def test_fixed_energy_static_electric(self, continuation_orbit):
        orb = continuation_orbit
        sys = self._electric_system(orb, self.EPS, "constant")
        prob = ShootingProblem(sys=sys, mode="fixed_energy", seed=orb.z0,
                               T=orb.T, h=orb.profile.h)
        res = continue_fixed_energy(prob)
        assert res.accepted
        assert res.residual <= 1e-9
        assert res.energy_residual <= 1e-9
        assert abs(res.period - orb.T) <= 0.05 * orb.T
        samples = manifold_samples(orb, 8, 8, group="planar")
        res = distance_to_manifold(res, samples)
        assert res.distance <= 0.1

    def test_fixed_energy_uniform_magnetic(self):
        orb3 = find_closed_orbit(CLASSICAL, Potential.homogeneous(1.0, 0.5),
                                 4, 5, -1.9, dim=3)
        pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), self.EPS)
        sys = HamiltonianSystem(CLASSICAL, orb3.potential, pert, 3)
        prob = ShootingProblem(sys=sys, mode="fixed_energy", seed=orb3.z0,
                               T=orb3.T, h=orb3.profile.h)
        res = continue_fixed_energy(prob)
        assert res.accepted
        assert res.residual <= 1e-9
        assert res.energy_residual <= 1e-9
        assert abs(res.period - orb3.T) <= 0.05 * orb3.T
        samples = manifold_samples(orb3, 6, 4, group="SO3")
        res = distance_to_manifold(res, samples)
        assert res.distance <= 0.1

    def test_eps_halving_shrinks_distance(self, continuation_orbit):
        orb = continuation_orbit
        samples = manifold_samples(orb, 8, 8, group="planar")
        dists = []
        for eps in (self.EPS, self.EPS / 2):
            sys = self._electric_system(orb, eps, "cosine")
            prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orb.z0,
                                   T=orb.T)
            res = continue_fixed_period(prob)
            assert res.accepted
            res = distance_to_manifold(res, samples)
            dists.append(res.distance)
        assert 1.5 <= dists[0] / dists[1] <= 3.0

    def test_distinct_solution_count_from_32_seeds(self, continuation_orbit):
        orb = continuation_orbit
        sys = self._electric_system(orb, self.EPS, "cosine")
        samples = manifold_samples(orb, 8, 4, group="planar")
        template = ShootingProblem(sys=sys, mode="fixed_period", seed=orb.z0,
                                   T=orb.T)
        results = multistart(template, samples)
        accepted = [r for r in results if r.accepted]
        assert len(results) == 32
        assert len(accepted) >= 1
        distinct = distinct_results(results)
        # reported, not asserted: first-order theory predicts a finite set
        print(f"\ndistinct continued solutions from 32 seeds: "
              f"{len(distinct)} (accepted {len(accepted)})")


class TestCriterion7NonRelativisticLimit:
    def test_observables_second_order_in_inverse_c(self):
        V = Potential.kepler()
        h, L = -0.375, 1.0
        pc = radial_profile(CLASSICAL, V, h, L)
        cs = np.array([5.0, 10.0, 20.0, 40.0])
        errs_tau, errs_phi = [], []
        for c in cs:
            p = radial_profile(KineticLaw.relativistic(m=1.0, c=c), V, h, L)
            errs_tau.append(abs(p.tau - pc.tau))
            errs_phi.append(abs(p.phi - pc.phi))
        x = np.log(1.0 / cs)
        for errs in (errs_tau, errs_phi):
            order = np.polyfit(x, np.log(errs), 1)[0]
            assert abs(order - 2.0) <= 0.3
        assert errs_phi[-1] <= 1e-3


class TestCriterion8RouteEquivalence:
    def test_all_configurations_agree(self, table_checks, rel_kepler_orbit):
        # cross_check raises on any verdict disagreement; reaching this point
        # with a populated report set is the regression assertion
        for key, *_ in TABLE:
            cc = table_checks[key]
            for problem, actions_verdict in (
                    ("fp", cc.fixed_period_verdict),
                    ("fe", cc.fixed_energy_verdict)):
                pl = cc.planar_fp if problem == "fp" else cc.planar_fe
                sp = cc.spatial_fp if problem == "fp" else cc.spatial_fe
                assert pl.verdict == actions_verdict, (key, problem)
                assert sp.verdict == actions_verdict, (key, problem)
        cc = cross_check(rel_kepler_orbit)
        assert cc.fixed_period_verdict == cc.planar_fp.verdict
        assert cc.fixed_energy_verdict == cc.spatial_fe.verdict
