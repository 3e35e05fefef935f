import math
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest
from scipy.optimize import brentq, root
from scipy.spatial.transform import Rotation

from cforbits import continuation, flow
from cforbits.continuation import (
    ContinuationResult,
    ShootingProblem,
    continue_fixed_energy,
    continue_fixed_period,
    distance_to_manifold,
    distinct_results,
    multistart,
)
from cforbits.errors import CollisionError, IntegrationError
from cforbits.flow import integrate, symplectic_matrix
from cforbits.model import (
    HamiltonianSystem,
    KineticLaw,
    Perturbation,
    Potential,
    reversor,
)
from cforbits.orbit import (
    ManifoldSample,
    PeriodicOrbit,
    find_closed_orbit,
    manifold_samples,
    radial_profile,
    reflect_apsis,
    rotate_plane,
    rotate_state,
)

CLASSICAL = KineticLaw.classical()
ALPHA_HALF = Potential.homogeneous(1.0, 0.5)


@pytest.fixture(scope="module")
def orbit():
    # 4:5 resonance at h = -1.9: moderately eccentric, robust to continue
    return find_closed_orbit(CLASSICAL, ALPHA_HALF, 4, 5, -1.9)


@pytest.fixture(scope="module")
def orbit3():
    return find_closed_orbit(CLASSICAL, ALPHA_HALF, 4, 5, -1.9, dim=3)


def electric_system(orbit, eps, profile="cosine"):
    T_forcing = orbit.T if profile == "cosine" else None
    pert = Perturbation.uniform_electric((1.0, 0.0), eps, profile=profile,
                                         T_forcing=T_forcing)
    return HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 2)


# the seeds at eps = 1e-2 whose direct run fails, so that the loop continues
# them in smaller steps, with the eps of each run as fractions of 1e-2: in a
# constant field along x1, the apogee on x1 at fixed period and the perigee
# (r_min, L/r_min) on x1 at fixed energy; in the resonant cosine field along
# x1 at fixed period, the perigees on +x1 and -x1
STEPPED_EPS = {
    "fixed_period": (1.0, 0.5, 0.25, 0.125, 0.375, 0.875, 1.0),
    "fixed_energy": (1.0, 0.5, 1.0),
    "cosine perigee +x1": (1.0, 0.5, 1.0),
    "cosine perigee -x1": (1.0, 0.5, 1.0),
}


def stepped_problem(orbit, case):
    """The seed ``case`` of ``STEPPED_EPS``."""
    p = orbit.profile
    perigee = np.array([p.r_min, 0.0, 0.0, p.L / p.r_min])
    if case.startswith("cosine"):
        sign = 1.0 if case.endswith("+x1") else -1.0
        return ShootingProblem(electric_system(orbit, 1e-2), "fixed_period",
                               sign * perigee, orbit.T)
    seed = orbit.z0 if case == "fixed_period" else perigee
    return ShootingProblem(electric_system(orbit, 1e-2, profile="constant"),
                           case, seed, orbit.T, h=p.h)


class TestShootingProblemValidation:
    def test_refuses_eps_zero(self, orbit):
        pert = Perturbation.uniform_electric((1.0, 0.0), 0.0,
                                             profile="constant")
        sys = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 2)
        with pytest.raises(ValueError, match="eps = 0"):
            ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                            T=orbit.T)

    def test_refuses_incommensurate_forcing(self, orbit):
        pert = Perturbation.uniform_electric((1.0, 0.0), 1e-4,
                                             profile="cosine",
                                             T_forcing=orbit.T / math.pi)
        sys = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 2)
        with pytest.raises(ValueError, match="forcing period"):
            ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                            T=orbit.T)

    def test_fixed_energy_needs_autonomous(self, orbit):
        sys = electric_system(orbit, 1e-4, profile="cosine")
        with pytest.raises(ValueError, match="autonomous"):
            ShootingProblem(sys=sys, mode="fixed_energy", seed=orbit.z0,
                            T=orbit.T, h=orbit.profile.h)

    def test_fixed_energy_needs_target_energy(self, orbit):
        sys = electric_system(orbit, 1e-4, profile="constant")
        with pytest.raises(ValueError, match="energy"):
            ShootingProblem(sys=sys, mode="fixed_energy", seed=orbit.z0,
                            T=orbit.T)

    def test_unknown_mode(self, orbit):
        sys = electric_system(orbit, 1e-4, profile="constant")
        with pytest.raises(ValueError, match="mode"):
            ShootingProblem(sys=sys, mode="continuation", seed=orbit.z0,
                            T=orbit.T)


class TestFixedPeriod:
    def test_converges_and_stays_close(self, orbit):
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        assert res.accepted
        assert res.residual <= 1e-8
        assert res.period == orbit.T
        assert np.max(np.abs(res.z0 - orbit.z0)) <= 0.05

    def test_response_is_first_order_in_eps(self, orbit):
        devs = []
        for eps in (1e-4, 5e-5):
            sys = electric_system(orbit, eps)
            prob = ShootingProblem(sys=sys, mode="fixed_period",
                                   seed=orbit.z0, T=orbit.T)
            res = continue_fixed_period(prob)
            assert res.accepted
            devs.append(np.max(np.abs(res.z0 - orbit.z0)))
        assert 1.5 <= devs[0] / devs[1] <= 3.0

    def test_convergence_on_last_allowed_iteration_is_accepted(
            self, orbit, monkeypatch):
        # this solve needs exactly 3 Newton iterations at eps = 1e-3
        sys = electric_system(orbit, 1e-3)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        monkeypatch.setattr(continuation, "MAX_NEWTON", 3)
        res = continue_fixed_period(prob)
        assert res.accepted, res.reason
        assert res.newton_iters == 3
        assert res.residual <= 1e-8
        assert len(res.rung_starts) == 1


def failing_half_shot(call, nth, halves, T):
    """call, with its nth half-period integration (t1 below 3T/4) ended
    early; halves records the t1 of each."""
    def wrapped(sys, z0, t0, t1, *, tol=flow.DEFAULT_TOL):
        if t1 < 0.75 * T:
            halves.append(t1)
            if len(halves) == nth:
                raise IntegrationError("injected")
        return call(sys, z0, t0, t1, tol=tol)
    return wrapped


class TestFailureContract:
    # at eps = 1e-4 = EPS_START the direct run is the loop's one step: half
    # of it is below EPS_START, so the run's failure ends the continuation

    @pytest.mark.parametrize("error, word", [
        (CollisionError, "collision"),
        (IntegrationError, "integration failure"),
    ], ids=["collision", "step_size"])
    def test_collision_in_deferred_variational_solve(self, orbit, monkeypatch,
                                                     error, word):
        # the first variational solve runs at the seed, the second only
        # after an accepted trial; its failure ends the run like a failing
        # first shot does, with the failure's own reason word
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise error("injected")
            return flow.integrate_with_variational(*args, **kwargs)

        monkeypatch.setattr(continuation, "integrate_with_variational",
                            second_fails)
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        assert len(calls) == 2
        assert not res.accepted
        assert res.reason == f"{word} at eps=0.0001"
        assert res.variational_solves == 2
        assert len(res.history) == res.newton_iters == 1
        assert res.history[0][2]
        assert res.residual == res.history[0][1]

    def test_failed_first_jacobian_leaves_the_first_shot_residual(
            self, orbit, monkeypatch):
        # the first shot is state-only: a variational solve that fails at
        # the seed leaves that shot's finite residual
        def fails(*args, **kwargs):
            raise CollisionError("injected")

        monkeypatch.setattr(continuation, "integrate_with_variational", fails)
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        assert not res.accepted and res.reason.startswith("collision at eps=")
        assert res.variational_solves == res.state_shots == 1
        assert res.history == ()
        ((eps, first),) = res.rung_starts
        assert eps == 1e-4
        assert np.isfinite(first) and res.residual == first

    def test_singular_jacobian_ends_the_run(self, orbit, monkeypatch):
        # a variational solve whose W is singular: the first trial cannot
        # solve for its step, the run ends with the first shot's residual
        # and no trial, and a halved step would fall below EPS_START
        def singular(*args, **kwargs):
            z, W = flow.integrate_with_variational(*args, **kwargs)
            return z, np.zeros_like(W)

        monkeypatch.setattr(continuation, "integrate_with_variational",
                            singular)
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        assert not res.accepted
        assert res.reason == "singular Jacobian at eps=0.0001"
        assert res.history == () and res.newton_iters == 0
        assert (res.state_shots, res.variational_solves) == (1, 1)
        ((eps, first),) = res.rung_starts
        assert eps == 1e-4 and np.isfinite(first) and res.residual == first
        assert np.array_equal(res.z0, orbit.z0)

    def test_collision_in_the_recheck_rejects_the_solution(self, orbit,
                                                           monkeypatch):
        # Newton converged; the re-check's full-period integration ends
        # early: rejected with the failure word, the converged residual,
        # its trials and no trajectory
        def collides(*args, **kwargs):
            raise CollisionError("injected")

        monkeypatch.setattr(continuation, "integrate", collides)
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        assert not res.accepted
        assert res.reason == "collision in re-check at eps=0.0001"
        assert res.newton_iters == len(res.history) >= 1
        assert all(ok for _, _, ok in res.history)
        assert res.residual == res.history[-1][1] <= continuation.RESIDUAL_TOL
        assert res.trajectory is None

    @pytest.mark.parametrize("mode", ["fixed_period", "fixed_energy"])
    def test_a_rejected_trial_ends_the_run(self, orbit, mode, monkeypatch):
        # the first trial's shot ends early: the trial is rejected, and the
        # run ends there with the seed's point and residual
        fe = mode == "fixed_energy"
        halves = []
        monkeypatch.setattr(continuation, "endpoint", failing_half_shot(
            flow.endpoint, 2, halves, orbit.T))
        sys = electric_system(orbit, 1e-4,
                              profile="constant" if fe else "cosine")
        prob = ShootingProblem(sys=sys, mode=mode, seed=orbit.z0, T=orbit.T,
                               h=orbit.profile.h)
        res = continuation._continue(prob)
        assert not res.accepted
        assert res.reason == "rejected step at eps=0.0001"
        assert res.history == ((1e-4, math.inf, False),)
        assert res.newton_iters == 1
        assert (res.state_shots, res.variational_solves) == (2, 1)
        ((eps, first),) = res.rung_starts
        assert res.residual == first
        assert np.array_equal(res.z0, orbit.z0)

    @pytest.mark.parametrize("mode", ["fixed_period", "fixed_energy"])
    def test_stagnation_returns_rejected_result(self, orbit, mode,
                                                monkeypatch):
        # the seed needs two Newton steps at eps = 1e-4
        fe = mode == "fixed_energy"
        sys = electric_system(orbit, 1e-4,
                              profile="constant" if fe else "cosine")
        prob = ShootingProblem(sys=sys, mode=mode, seed=orbit.z0, T=orbit.T,
                               h=orbit.profile.h if fe else None)
        runner = continue_fixed_energy if fe else continue_fixed_period
        monkeypatch.setattr(continuation, "MAX_NEWTON", 1)
        res = runner(prob)
        assert not res.accepted
        assert res.newton_iters == 1
        assert np.isfinite(res.residual)
        assert res.reason.startswith("stagnation")


class TestStallExit:
    def test_stalled_seed_is_rejected_early(self, orbit, monkeypatch):
        # every Jacobian ten times too large: each step goes a tenth of the
        # way, so the first trial lowers |R| but contracts by Theta_0 = 0.9,
        # and the run ends there; half its step is below EPS_START, so the
        # continuation ends too, after one trial
        def tenfold(*args, **kwargs):
            z, W = flow.integrate_with_variational(*args, **kwargs)
            return z, 10.0 * W

        monkeypatch.setattr(continuation, "integrate_with_variational",
                            tenfold)
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        assert not res.accepted
        assert res.reason == "no contraction at eps=0.0001"
        assert res.newton_iters == len(res.history) == 1
        assert res.history[0][2]
        (theta,) = res.contractions
        assert continuation.THETA_MAX <= theta < 1.0
        ((_, first),) = res.rung_starts
        assert res.residual == first
        assert np.array_equal(res.z0, orbit.z0)

    def test_converging_path_is_unchanged(self, orbit, problems,
                                          larmor_orbits, monkeypatch):
        # the reference path of the loop: THETA_MAX = inf, where no run ends
        # for its contraction.  A seed whose direct run converges with
        # Theta_0 < THETA_MAX takes it under both, to the last bit: the
        # problems of ``problems``, the Larmor apogee seeds at 1e-4 and 1e-3
        # and the apsis seeds of the 2 x 2 grid in a constant field at 1e-3
        samples = manifold_samples(orbit, 2, 2, group="planar")
        constant = electric_system(orbit, 1e-3, profile="constant")
        cases = ([p for p, _ in problems]
                 + [larmor_problem(larmor_orbits, name, mode, eps, 0)
                    for name, mode, eps in LARMOR_APOGEE if eps < 1e-2]
                 + [ShootingProblem(constant, mode, samples.states[i], orbit.T,
                                    h=orbit.profile.h)
                    for mode in ("fixed_period", "fixed_energy")
                    for i in (0, 2)])
        fast = [continuation._continue(p) for p in cases]
        monkeypatch.setattr(continuation, "THETA_MAX", math.inf)
        ref = [continuation._continue(p) for p in cases]
        assert sum(f.accepted for f in fast) == len(cases) - 2
        for f, r in zip(fast, ref):
            assert len(f.rung_starts) == (1 if f.accepted else 0)
            assert np.array_equal(f.z0, r.z0)
            for name in ("accepted", "reason", "period", "eps", "residual",
                         "energy_residual", "newton_iters", "history",
                         "variational_solves", "jacobian_reuses",
                         "state_shots", "rung_starts", "contractions",
                         "half_condition"):
                assert getattr(f, name) == getattr(r, name), name

    @pytest.mark.parametrize("mode", ["fixed_period", "fixed_energy"])
    def test_history_has_one_entry_per_trial(self, orbit, mode, monkeypatch):
        fe = mode == "fixed_energy"
        sys = electric_system(orbit, 1e-4,
                              profile="constant" if fe else "cosine")
        prob = ShootingProblem(sys=sys, mode=mode, seed=orbit.z0, T=orbit.T,
                               h=orbit.profile.h if fe else None)
        runner = continue_fixed_energy if fe else continue_fixed_period
        for max_newton in (1, continuation.MAX_NEWTON):
            monkeypatch.setattr(continuation, "MAX_NEWTON", max_newton)
            res = runner(prob)
            assert len(res.history) == res.newton_iters >= 1
            for eps, r, ok in res.history:
                assert eps == 1e-4
                assert np.isfinite(r) or not ok
            accepted = [r for _, r, ok in res.history if ok]
            assert accepted == sorted(accepted, reverse=True)
            if res.accepted:
                assert accepted[-1] <= 1e-9 * (1.0 + np.linalg.norm(orbit.z0))


def _variational_endpoint(sys, z0, t0, t1, *, tol=flow.DEFAULT_TOL):
    # every trial shot through the variational solve, as before the state-only
    # shot: the reference path of the deferred Jacobian
    return flow.integrate_with_variational(sys, z0, t0, t1, tol=tol)[0]


@pytest.fixture(scope="module")
def problems(orbit, orbit3):
    """(problem, samples) at eps = 1e-3 for the four seeds of the 2 x 2
    planar grid at fixed period (the benchmark's multistart problem), the
    planar apogee at fixed energy in a constant field, and the spatial
    apogee in a magnetic field (the benchmark's spatial problem)."""
    seeds = manifold_samples(orbit, 2, 2, group="planar").states
    planar = manifold_samples(orbit, 6, 6, group="planar")
    cases = [(ShootingProblem(sys=electric_system(orbit, 1e-3),
                              mode="fixed_period", seed=z, T=orbit.T), planar)
             for z in seeds]
    cases.append((ShootingProblem(
        sys=electric_system(orbit, 1e-3, profile="constant"),
        mode="fixed_energy", seed=orbit.z0, T=orbit.T, h=orbit.profile.h),
        planar))
    pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 1e-3)
    cases.append((ShootingProblem(
        sys=HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 3),
        mode="fixed_energy", seed=orbit3.z0, T=orbit3.T, h=orbit3.profile.h),
        manifold_samples(orbit3, 6, 4, group="SO3")))
    return cases


# the problems whose seed lies on the reversor's fixed set: the apogee seeds
# 0 and 2 of the grid, the planar fixed-energy seed and the spatial one; the
# grid's tau/2 seeds 1 and 3, perigees off the field's line, do not
SYMMETRIC = (0, 2, 4, 5)


@pytest.fixture(scope="module")
def symmetric_problems(problems):
    return [problems[i] for i in SYMMETRIC]


def _run(cases):
    out = []
    for p, samples in cases:
        runner = (continue_fixed_energy if p.mode == "fixed_energy"
                  else continue_fixed_period)
        r = runner(p)
        out.append(distance_to_manifold(r, samples) if r.accepted else r)
    return out


@pytest.fixture(scope="module")
def symmetric_results(symmetric_problems):
    return _run(symmetric_problems)


@pytest.fixture(scope="module")
def stepped_cases(orbit):
    """(problem, samples) of the seeds of ``STEPPED_EPS``, in its order."""
    planar = manifold_samples(orbit, 6, 6, group="planar")
    return [(stepped_problem(orbit, case), planar) for case in STEPPED_EPS]


@pytest.fixture(scope="module")
def stepped_results(stepped_cases):
    return _run(stepped_cases)


@pytest.fixture(scope="module")
def deferred_and_reference(symmetric_problems, symmetric_results,
                           stepped_cases, stepped_results):
    """(result, reference result) for the planar problems of
    ``symmetric_problems`` and the first seed of ``STEPPED_EPS``, the
    reference shooting every trial through the variational solve."""
    cases = symmetric_problems[:3] + stepped_cases[:1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "endpoint", _variational_endpoint)
        ref = _run(cases)
    return list(zip(symmetric_results[:3] + stepped_results[:1], ref))


class TestDeferredJacobian:
    def test_same_path_as_variational_shots(self, deferred_and_reference):
        for fast, ref in deferred_and_reference:
            assert fast.accepted and ref.accepted
            assert fast.newton_iters == ref.newton_iters
            assert [e[2] for e in fast.history] == [e[2] for e in ref.history]
            assert [e for e, _ in fast.rung_starts] == [
                e for e, _ in ref.rung_starts]
            assert fast.variational_solves == ref.variational_solves
            assert np.max(np.abs(fast.z0 - ref.z0)) <= 1e-6
            assert abs(fast.period - ref.period) <= 1e-6
            assert fast.distance == pytest.approx(ref.distance, rel=1e-6)
        assert len(deferred_and_reference[-1][0].rung_starts) > 1

    def test_every_trial_solves_or_reuses_its_jacobian(
            self, symmetric_results, stepped_results):
        # every trial steps with a Jacobian solved at its point or, once,
        # with the one the trial before stepped with
        for r in symmetric_results + stepped_results:
            assert r.accepted
            assert (r.variational_solves + r.jacobian_reuses
                    == r.newton_iters == len(r.history))

    def test_one_state_shot_per_rung_start_and_trial_shot(
            self, symmetric_results, stepped_results):
        for r in symmetric_results + stepped_results:
            shot = sum(1 for _, res, _ in r.history if np.isfinite(res))
            assert r.state_shots == len(r.rung_starts) + shot > 1


def test_jacobian_tolerance_follows_the_residual():
    tol, res_tol = flow.DEFAULT_TOL, continuation.RESIDUAL_TOL
    for res in (0.0, 1e-15, 0.5 * res_tol, res_tol):
        assert continuation._jacobian_tol(res) == tol
    for res in (np.nextafter(res_tol, 1.0), 2e-9, 1e-3, 1e-2, 1.0, 1e3):
        assert continuation._jacobian_tol(res) > tol
        assert continuation._jacobian_tol(res) == pytest.approx(
            tol * res / res_tol, rel=1e-15)


def _exact_jacobian_tol(res):
    # every Jacobian at DEFAULT_TOL: the reference path of the inexact one
    return flow.DEFAULT_TOL


@pytest.fixture(scope="module")
def exact_jacobian_results(problems, stepped_cases):
    """With every Jacobian solved at DEFAULT_TOL: the seeds of
    ``STEPPED_EPS``, then the 2 x 2 fixed-period grid (seeds 0 and 2
    continued, 1 and 3 off the fixed set)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "_jacobian_tol", _exact_jacobian_tol)
        return _run(stepped_cases), _run(problems[:4])


class TestInexactJacobian:
    # TestInexactHalfPeriodJacobian compares direct runs; these compare the
    # runs of the seeds whose direct run fails, and a grid with seeds off
    # the fixed set

    @staticmethod
    def assert_same_answer(fast, ref):
        # the solutions are isolated on the fixed set: z0 is compared
        # pointwise
        assert fast.accepted == ref.accepted
        assert fast.reason == ref.reason
        assert [e for e, _ in fast.rung_starts] == [
            e for e, _ in ref.rung_starts]
        if fast.accepted:
            assert np.max(np.abs(fast.z0 - ref.z0)) <= SYMMETRIC_Z0_TOL
            assert abs(fast.period - ref.period) <= SYMMETRIC_PERIOD_TOL
            assert fast.distance == pytest.approx(ref.distance, rel=1e-9)

    def test_same_answers_as_exact_jacobians(self, stepped_results,
                                             exact_jacobian_results):
        refs, _ = exact_jacobian_results
        for fast, ref in zip(stepped_results, refs):
            assert len(fast.rung_starts) > 1
            self.assert_same_answer(fast, ref)

    def test_grid_on_its_own_paths(self, problems, symmetric_results,
                                   exact_jacobian_results):
        _, grid = exact_jacobian_results
        fast = [symmetric_results[0], *_run(problems[1:2]),
                symmetric_results[1], *_run(problems[3:4])]
        assert [r.accepted for r in grid] == [True, False] * 2
        for f, ref in zip(fast, grid):
            self.assert_same_answer(f, ref)


def assert_mirrored(neg, pos):
    """neg takes the runs and trials of pos at the mirrored eps, to the
    same solution.  Its reversor's angle is pos's turned by pi, whose frame
    differs by rounding, so the solutions agree to rounding, not bit for
    bit."""
    assert neg.eps == -pos.eps
    assert [e for e, *_ in neg.history] == [-e for e, *_ in pos.history]
    assert [ok for *_, ok in neg.history] == [ok for *_, ok in pos.history]
    assert [e for e, _ in neg.rung_starts] == [-e for e, _ in pos.rung_starts]
    for name in ("accepted", "reason", "newton_iters", "variational_solves",
                 "state_shots"):
        assert getattr(neg, name) == getattr(pos, name), name
    assert np.max(np.abs(neg.z0 - pos.z0)) <= 1e-13
    assert neg.period == pytest.approx(pos.period, rel=1e-14)
    ts = np.linspace(0.0, pos.period, 101)
    assert np.max(np.abs(neg.trajectory(ts) - pos.trajectory(ts))) <= 1e-11


class TestSignedEps:
    @pytest.mark.parametrize("mode,profile,eps", [
        ("fixed_period", "cosine", 1e-3),
        ("fixed_energy", "constant", 3e-4),
        ("fixed_period", "constant", -1e-2),
    ])
    def test_negative_eps_is_the_reversed_field(self, orbit, mode, profile,
                                                eps):
        # eps ranges over the reals without 0, and (-eps) e and eps (-e) are
        # the same field to the last bit, so both continuations take the
        # same runs at the mirrored eps, also where the direct run fails
        # (the field along +x1 at 1e-2)
        T_forcing = orbit.T if profile == "cosine" else math.inf
        results = []
        for e_vec, size in (((1.0, 0.0), -eps), ((-1.0, -0.0), eps)):
            pert = Perturbation.uniform_electric(e_vec, size, profile=profile,
                                                 T_forcing=T_forcing)
            sys = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 2)
            prob = ShootingProblem(sys=sys, mode=mode, seed=orbit.z0,
                                   T=orbit.T, h=orbit.profile.h)
            results.append(continue_fixed_period(prob) if mode == "fixed_period"
                           else continue_fixed_energy(prob))
        assert results[0].accepted, results[0].reason
        starts = [e for e, _ in results[0].rung_starts]
        assert starts == [-eps * s for s in (
            STEPPED_EPS["fixed_period"] if eps < 0 else (1.0,))]
        assert_mirrored(*results)


class TestFixedEnergy:
    def test_static_electric(self, orbit):
        sys = electric_system(orbit, 1e-4, profile="constant")
        prob = ShootingProblem(sys=sys, mode="fixed_energy", seed=orbit.z0,
                               T=orbit.T, h=orbit.profile.h)
        res = continue_fixed_energy(prob)
        assert res.accepted
        assert res.residual <= 1e-8
        assert res.energy_residual <= 1e-10
        assert abs(res.period - orbit.T) <= 0.05 * orbit.T

    def test_uniform_magnetic_spatial(self):
        orb3 = find_closed_orbit(CLASSICAL, ALPHA_HALF, 4, 5, -1.9, dim=3)
        pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 1e-4)
        sys = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 3)
        prob = ShootingProblem(sys=sys, mode="fixed_energy", seed=orb3.z0,
                               T=orb3.T, h=orb3.profile.h)
        res = continue_fixed_energy(prob)
        assert res.accepted
        assert res.energy_residual <= 1e-10

    def test_converged_rungs_pass_the_energy_recheck(self, orbit):
        # a run converges only with its energy row within ENERGY_TOL, the
        # re-check's bound, so no result fails the re-check on its energy
        sys = electric_system(orbit, 1e-3, profile="constant")
        samples = manifold_samples(orbit, 2, 2, group="planar")
        template = ShootingProblem(sys=sys, mode="fixed_energy",
                                   seed=samples.states[0], T=orbit.T,
                                   h=orbit.profile.h)
        for res in multistart(template, samples):
            assert "energy" not in res.reason or res.accepted
            if res.accepted:
                assert res.energy_residual <= continuation.ENERGY_TOL

    def test_accepted_closure_is_within_the_absolute_tolerance(self, orbit3):
        # the re-check accepts a closure up to 10 RESIDUAL_TOL; this spatial
        # solution, independently integrated over the whole period, closes
        # within RESIDUAL_TOL itself
        pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 1e-3)
        sys = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 3)
        prob = ShootingProblem(sys=sys, mode="fixed_energy", seed=orbit3.z0,
                               T=orbit3.T, h=orbit3.profile.h)
        res = continue_fixed_energy(prob)
        assert res.accepted
        assert res.residual <= continuation.RESIDUAL_TOL


def _uncontinued(z0, T, traj):
    return ContinuationResult(True, "ok", z0, T, 1e-4, 0.0, 0.0, 0, 0,
                              trajectory=traj)


class TestDistance:
    # the base orbit itself, then unperturbed copies turned by a rotation
    # (after a mirror x2 -> -x2, for the last) and shifted by a fraction of
    # tau, both off the 4 x 4 sample grid; on the orbit plane the mirror is
    # the proper rotation Rx(pi), so SO(3) holds the mirrored copy too
    @pytest.mark.parametrize("group, rotvec, mirror, shift", [
        ("planar", (0.0, 0.0, 0.0), False, 0.0),
        ("planar", (0.0, 0.0, 1.0), False, 0.37),
        ("SO3", (0.3, -0.5, 0.8), False, 0.61),
        ("SO3", (0.3, -0.5, 0.8), True, 0.23),
    ], ids=["planar-identity", "planar-turned", "SO3-turned", "O3-mirrored"])
    def test_unperturbed_orbit_has_zero_distance(self, orbit, orbit3, group,
                                                 rotvec, mirror, shift):
        base = orbit if group == "planar" else orbit3
        M = Rotation.from_rotvec(rotvec).as_matrix()
        if mirror:
            M = M @ np.diag([1.0, -1.0, 1.0])
        M = M[: base.dim, : base.dim]
        theta = shift * base.profile.tau
        z0 = rotate_state(M, base.states(-theta))
        traj = integrate(base.system, z0, 0.0, base.T, tol=1e-12)
        samples = manifold_samples(base, 4, 4, group=group)
        out = distance_to_manifold(_uncontinued(z0, base.T, traj), samples)
        assert out.distance <= 1e-8
        R, th = out.distance_element
        ts = np.linspace(0.0, base.T, 50)
        mapped = np.array([R @ base.states(t - th)[: base.dim] for t in ts])
        assert np.max(np.linalg.norm(
            mapped - traj(ts)[:, : base.dim], axis=1)) <= 1e-8

    def test_turn_about_the_field_leaves_distance_unchanged(self, orbit3):
        # rotations about B0 are symmetries of the problem and the manifold
        # is SO(3)-invariant, so a turned solution is exactly as far from it
        pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 1e-3)
        sys = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 3)
        samples = manifold_samples(orbit3, 6, 4, "SO3")
        turn = Rotation.from_rotvec((0.0, 0.0, 0.3)).as_matrix()
        dists = []
        for z0 in (orbit3.z0, rotate_state(turn, orbit3.z0)):
            traj = integrate(sys, z0, 0.0, orbit3.T, tol=1e-12)
            dists.append(distance_to_manifold(
                _uncontinued(z0, orbit3.T, traj), samples).distance)
        assert dists[1] == pytest.approx(dists[0], rel=1e-9)

    def test_continued_solution_is_near_manifold(self, orbit):
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        samples = manifold_samples(orbit, 6, 6, group="planar")
        out = distance_to_manifold(res, samples)
        assert out.distance <= 0.1
        assert out.distance_element is not None

    def test_shift_grid_is_the_per_shift_loop_bit_for_bit(
            self, symmetric_problems, symmetric_results, monkeypatch):
        # the grid is the first states call; each shift's slice has the bits
        # of the per-shift call at ts - theta, so each score has them too
        states = PeriodicOrbit.states
        calls = []

        def recorded(self, t):
            out = states(self, t)
            calls.append((self, out))
            return out

        monkeypatch.setattr(PeriodicOrbit, "states", recorded)
        n_shifts, n_samples = continuation.N_SHIFTS, continuation.N_SAMPLES
        for (_, samples), r in zip(symmetric_problems, symmetric_results):
            calls.clear()
            distance_to_manifold(r, samples)
            base, grid = calls[0]
            ts = np.linspace(0.0, r.period, n_samples)
            step = base.profile.tau / n_shifts
            for k, shift in enumerate(grid.reshape(n_shifts, n_samples, -1)):
                assert np.array_equal(shift, states(base, ts - step * k))

    def test_batched_fits_are_the_per_shift_loop_bit_for_bit(
            self, symmetric_problems, symmetric_results):
        # the grid's 64 Procrustes fits in one stacked pass give each
        # shift's sup-norm and rotation the bits of the fit of its slice
        # alone, as the per-shift loop formed it: the planar and spatial
        # solutions, and a planar base under spatial positions
        def loop_fit(X, base):
            Y = np.zeros_like(X)
            Y[:, :base.shape[1]] = base
            U, _, Vt = np.linalg.svd(X.T @ Y)
            if np.linalg.det(U @ Vt) < 0:
                U[:, -1] = -U[:, -1]
            M = U @ Vt
            return float(np.max(np.linalg.norm(X - Y @ M.T, axis=1))), M

        n_shifts, n_samples = continuation.N_SHIFTS, continuation.N_SAMPLES
        cases = []
        for (_, samples), r in zip(symmetric_problems, symmetric_results):
            base, dim = samples.base, r.z0.size // 2
            ts = np.linspace(0.0, r.period, n_samples)
            step = base.profile.tau / n_shifts
            grid = base.states((ts - step * np.arange(n_shifts)[:, None]).ravel())
            cases.append((r.trajectory(ts)[:, :dim],
                          grid.reshape(n_shifts, n_samples, -1)[..., :base.dim]))
        rng = np.random.default_rng(7)
        cases.append((rng.normal(size=(n_samples, 3)),
                      rng.normal(size=(n_shifts, n_samples, 2))))
        assert {X.shape[1] for X, _ in cases} == {2, 3}
        for X, P in cases:
            scores, rotations = continuation._fits(X, P)
            for score, M, base in zip(scores, rotations, P):
                ref_score, ref_M = loop_fit(X, base)
                assert score == ref_score
                assert np.array_equal(M.view(np.int64), ref_M.view(np.int64))

    def test_requires_trajectory(self, orbit):
        res = ContinuationResult(
            False, "failed", orbit.z0, orbit.T, 1e-4, np.inf, np.inf, 0, 0)
        samples = manifold_samples(orbit, 2, 2, group="planar")
        with pytest.raises(ValueError):
            distance_to_manifold(res, samples)


def multistart_fp_grid(orbit, beta):
    """One turn of the benchmark's multistart problem: the 2 x 2 planar grid
    turned by beta under the resonant cosine field along beta, eps =
    1e-3."""
    c, s = math.cos(beta), math.sin(beta)
    base = manifold_samples(orbit, 2, 2, group="planar")
    samples = ManifoldSample(orbit, "planar",
                             tuple((a + beta, th) for a, th in base.elements),
                             rotate_plane(base.states, beta))
    pert = Perturbation.uniform_electric((c, s), 1e-3, profile="cosine",
                                         T_forcing=orbit.T)
    template = ShootingProblem(HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert,
                                                 2), "fixed_period",
                               samples.states[0], orbit.T)
    return template, samples


class TestMultistart:
    def test_planar_seeds_all_converge(self, orbit):
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        samples = manifold_samples(orbit, 2, 2, group="planar")
        results = multistart(prob, samples)
        assert len(results) == 4
        assert [r.seed_id for r in results] == [0, 1, 2, 3]
        assert any(r.accepted for r in results)

    def test_distinct_results_deduplicates(self, orbit):
        sys = electric_system(orbit, 1e-4)
        prob = ShootingProblem(sys=sys, mode="fixed_period", seed=orbit.z0,
                               T=orbit.T)
        res = continue_fixed_period(prob)
        reps = distinct_results([res, res])
        assert len(reps) == 1

    def test_distinct_results_empty_without_accepts(self, orbit):
        res = ContinuationResult(
            False, "failed", orbit.z0, orbit.T, 1e-4, np.inf, np.inf, 0, 0)
        assert distinct_results([res]) == []

    def test_every_sample_goes_to_the_runner(self, orbit):
        # the benchmark's grid turned by 3 pi/4: the apogee samples lie on
        # the field's line and are accepted, critical points of Gamma by
        # Palais's principle (measured 3.2e-13); the tau/2 samples, perigees
        # off that line, come back from the runner rejected unshot, off
        # Gamma's critical set (delta 0.71).  Every result carries its
        # sample's gradient and distance
        template, samples = multistart_fp_grid(orbit, 3 * math.pi / 4)
        results = multistart(template, samples)
        assert [r.accepted for r in results] == [True, False] * 2
        points = continuation.reduced_functional(
            orbit, template.sys.perturbation, "planar", samples.elements)
        for r, p in zip(results, points):
            assert r.reduced_gradient == float(np.linalg.norm(p.gradient))
            assert r.reduced_distance == p.distance
            if r.accepted:
                assert r.reduced_gradient <= 1e-11
            else:
                assert r.reason.startswith("off the fixed set")
                assert r.newton_iters == r.state_shots == 0
                assert r.reduced_distance == pytest.approx(0.71, abs=0.01)

    def test_reduced_fields_only_from_multistart(self, orbit):
        sys = electric_system(orbit, 1e-4)
        r = continue_fixed_period(ShootingProblem(sys, "fixed_period",
                                                  orbit.z0, orbit.T))
        assert r.reduced_gradient is None and r.reduced_distance is None


# --- the fixed set and the half-period system ---

def _on_fix(problem):
    # the membership rule of the continuation: |R_a z - z| <= FIX_TOL (1 + |z|)
    a = reversor(problem.sys.perturbation)
    z = np.asarray(problem.seed, dtype=float)
    return bool(np.linalg.norm(reflect_apsis(z, a) - z)
                <= continuation.FIX_TOL * (1.0 + np.linalg.norm(z)))


class TestFixedSet:
    def test_only_apogee_seeds_on_the_field_line_lie_on_it(self, orbit,
                                                           orbit3):
        # the 32-seed grid: rotations by multiples of pi/4 and shifts by
        # multiples of tau/4; the field is along x1, so R_0 is the reversor
        # and only the apogee states at rotations 0 and pi are fixed by it
        # (the perigees lie at -4 pi/5 from their rotation)
        sys = electric_system(orbit, 1e-3)
        samples = manifold_samples(orbit, 8, 4, group="planar")
        on = [i for i, z in enumerate(samples.states)
              if _on_fix(ShootingProblem(sys, "fixed_period", z, orbit.T))]
        assert on == [0, 16]
        pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 1e-3)
        sys3 = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 3)
        samples3 = manifold_samples(orbit3, 6, 4, group="SO3")
        on = [i for i, z in enumerate(samples3.states)
              if _on_fix(ShootingProblem(sys3, "fixed_energy", z, orbit3.T,
                                         h=orbit3.profile.h))]
        assert on == [0]

    def test_the_fixed_set_turns_with_the_field(self, orbit):
        # the apogee seed turned by 0.7 lies on Fix(R_0.7), the reversor of
        # the field turned by 0.7, and not on Fix(R_0)
        c, s = math.cos(0.7), math.sin(0.7)
        seed = rotate_state(np.array([[c, -s], [s, c]]), orbit.z0)
        for e_vec, on in (((c, s), True), ((1.0, 0.0), False)):
            pert = Perturbation.uniform_electric(e_vec, 1e-3)
            sys = HamiltonianSystem(CLASSICAL, ALPHA_HALF, pert, 2)
            prob = ShootingProblem(sys, "fixed_period", seed, orbit.T)
            assert _on_fix(prob) is on

    @pytest.mark.parametrize("mode", ["fixed_period", "fixed_energy"])
    def test_an_off_fix_seed_is_rejected_unshot(self, orbit, mode,
                                                monkeypatch):
        # the tau/2 sample of the 2 x 2 grid, a perigee at -4 pi/5 from the
        # field's line: no shot, no solve and no Newton step
        def unused(*args, **kwargs):
            raise AssertionError("integrated an off-Fix seed")

        for name in ("endpoint", "integrate_with_variational", "integrate"):
            monkeypatch.setattr(continuation, name, unused)
        fe = mode == "fixed_energy"
        sys = electric_system(orbit, 1e-3,
                              profile="constant" if fe else "cosine")
        seed = manifold_samples(orbit, 2, 2, group="planar").states[1]
        prob = ShootingProblem(sys, mode, seed, orbit.T,
                               h=orbit.profile.h, seed_id=1)
        assert not _on_fix(prob)
        r = continuation._continue(prob)
        gap = np.linalg.norm(reflect_apsis(seed, 0.0) - seed)
        assert not r.accepted
        assert r.reason == f"off the fixed set: |R_a z - z| = {gap:.3g}"
        assert r.newton_iters == r.state_shots == r.variational_solves == 0
        assert r.history == () and r.rung_starts == ()
        assert r.trajectory is None and r.half_condition is None
        assert np.array_equal(r.z0, seed) and r.period == orbit.T
        assert r.eps == 1e-3 and r.seed_id == 1
        assert r.residual == r.energy_residual == math.inf

    def test_exact_perigee_sample_on_the_field_line(self, orbit,
                                                    monkeypatch):
        # the sample (9 pi/5, tau/2) is the perigee turned onto the
        # negative x1 axis.  Built from states() it lay 9.0e-11 off Fix(R_0)
        # (the perigee junction's error); built from the profile it lies on
        # it to rounding, and the continuation accepts it in 3 steps
        samples = manifold_samples(orbit, 10, 2, group="planar")
        a, th = samples.elements[19]
        assert a == pytest.approx(9 * math.pi / 5)
        assert th == 0.5 * orbit.profile.tau
        z = samples.states[19]
        p = orbit.profile
        assert np.allclose(z, [-p.r_min, 0.0, 0.0, -p.L / p.r_min],
                           rtol=0.0, atol=1e-14)
        assert np.linalg.norm(z - rotate_plane(orbit.states(-th), a)) <= 1e-9
        prob = ShootingProblem(electric_system(orbit, 1e-3), "fixed_period",
                               z, orbit.T)
        assert _on_fix(prob)
        res = continue_fixed_period(prob)
        assert res.accepted, res.reason
        assert res.newton_iters == 3 and len(res.rung_starts) == 1


# the condition number of the half-period system at the solutions of
# ``symmetric_problems``, measured 331 and 336 (seeds 0 and 2 at fixed period), 1,599
# (planar, fixed energy) and 11,814 (spatial): bounds about 3x above.  Its
# smallest singular value, measured 0.268, 0.258, 0.0543 and 0.00736, is at
# least HALF_SYSTEM_SMIN, 7x below the smallest
HALF_SYSTEM_COND = {(2, "fixed_period"): 1e3, (2, "fixed_energy"): 5e3,
                    (3, "fixed_energy"): 4e4}
HALF_SYSTEM_SMIN = 1e-3


def half_period_jacobian(sys, mode, z0, T):
    """The Newton matrix of the half-period system at (z0, T), rebuilt:
    Bo W(T/2) Be^T, with Be and Bo the even and odd coordinate directions
    of R_a in the frame turned by the reversor's angle a, bordered at fixed
    energy by the period column Bo f(T/2) / 2 and the energy row
    Be J f(0)."""
    d, n = sys.dim, 2 * sys.dim
    a = reversor(sys.perturbation)
    B = rotate_plane(np.eye(n), a)
    odd = [1, *range(d, n, 2)]  # x2, p1 (and p3): the coordinates R_0 flips
    Be, Bo = np.delete(B, odd, axis=0), B[odd]
    zh, W = flow.integrate_with_variational(sys, z0, 0.0, 0.5 * T)
    Jac = Bo @ W @ Be.T
    if mode == "fixed_energy":
        gradH = Be @ (symplectic_matrix(d) @ sys.vector_field(0.0, z0))
        Jac = np.vstack([
            np.column_stack([Jac, 0.5 * (Bo @ sys.vector_field(0.5 * T, zh))]),
            np.append(gradH, 0.0)])
    return Jac


# the symmetric fixed-energy result misses the harmonic period 2 pi by
# 9.8e-14: a bound about 10x above
HARMONIC_PERIOD_TOL = 1e-12


def harmonic_problem(mode):
    """The degenerate harmonic 1:2 orbit from its apogee on Fix(R_0), in a
    constant (fixed energy) or resonant cosine (fixed period) electric
    field along x1 at eps = 1e-3."""
    V = Potential.harmonic()
    orb = find_closed_orbit(CLASSICAL, V, 1, 2, 1.25, L_seed=1.0)
    fe = mode == "fixed_energy"
    pert = Perturbation.uniform_electric(
        (1.0, 0.0), 1e-3, profile="constant" if fe else "cosine",
        T_forcing=math.inf if fe else orb.T)
    return ShootingProblem(HamiltonianSystem(CLASSICAL, V, pert, 2), mode,
                           orb.z0, orb.T, h=orb.profile.h)


def assert_plain_newton(r):
    """r converged at its first run, the direct attempt: every step lowers
    the residual, one state-only half-period shot per iterate and one at
    the seed, and per trial one variational solve or one reused Jacobian."""
    assert r.history and all(ok for *_, ok in r.history)
    assert {e for e, *_ in r.history} == {r.eps}
    assert (r.variational_solves + r.jacobian_reuses
            == r.newton_iters == len(r.history))
    assert r.state_shots == r.newton_iters + 1
    ((eps, first),) = r.rung_starts
    assert eps == r.eps and first > continuation.RESIDUAL_TOL


class TestSymmetricPath:
    def test_results_pass_the_unchanged_recheck(self, symmetric_problems,
                                                symmetric_results):
        for (p, _), r in zip(symmetric_problems, symmetric_results):
            assert _on_fix(p)
            assert r.accepted and r.reason == "ok"
            assert r.residual <= continuation.RESIDUAL_TOL
            assert r.distance <= 0.1
            assert_plain_newton(r)
            if p.mode == "fixed_energy":
                assert r.energy_residual <= continuation.ENERGY_TOL

    def test_solutions_are_isolated(self, symmetric_problems,
                                    symmetric_results, monkeypatch):
        # a regular half-period system: each solution is isolated on
        # Fix(R_a), unlike the curve of full-period solutions at fixed
        # period
        for (p, _), r in zip(symmetric_problems, symmetric_results):
            sys, mode = p.sys, p.mode
            Jac = half_period_jacobian(sys, mode, r.z0, r.period)
            assert np.linalg.cond(Jac) <= HALF_SYSTEM_COND[sys.dim, mode]
            assert np.linalg.svd(Jac, compute_uv=False)[-1] >= HALF_SYSTEM_SMIN
            # the result records the condition of the last Jacobian Newton
            # solved, at the point of the run's last variational solve (one
            # or two steps before the solution): the same rebuilt there
            solved = []

            def recorded(sys, z0, t0, t1, **kwargs):
                solved.append((z0, 2.0 * t1))
                return flow.integrate_with_variational(sys, z0, t0, t1,
                                                       **kwargs)

            with monkeypatch.context() as mp:
                mp.setattr(continuation, "integrate_with_variational",
                           recorded)
                again = continuation._continue(p)
            assert np.array_equal(again.z0, r.z0)
            assert len(solved) == r.variational_solves
            z_last, T_last = solved[-1]
            last = half_period_jacobian(sys, mode, z_last, T_last)
            assert r.half_condition == pytest.approx(np.linalg.cond(last),
                                                     rel=1e-3)
        # the degenerate harmonic orbit, whose half-system vanishes at
        # eps = 0 (singular values 1.2e-11)
        V = Potential.harmonic()
        orb = find_closed_orbit(CLASSICAL, V, 1, 2, 1.25, L_seed=1.0)
        sys = HamiltonianSystem(CLASSICAL, V, Perturbation.zero(), 2)
        Jac = half_period_jacobian(sys, "fixed_period", orb.z0, orb.T)
        assert np.linalg.svd(Jac, compute_uv=False)[0] <= 1e-10

    def test_fed_back_the_solution_converges_at_its_first_shot(
            self, symmetric_problems, symmetric_results):
        # a symmetric solution lies on Fix(R_a) to rounding: fed back as the
        # seed, its first half-period shot has already converged
        for (p, samples), sym in zip(symmetric_problems, symmetric_results):
            back = _run([(replace(p, seed=sym.z0, T=sym.period), samples)])[0]
            assert back.accepted
            # its first shot is state-only, so it takes no variational solve
            assert back.newton_iters == 0 and back.variational_solves == 0
            assert back.state_shots == 1 and back.half_condition is None
            ((eps, first),) = back.rung_starts
            assert eps == 1e-3 and first <= continuation.RESIDUAL_TOL
            assert np.max(np.abs(back.z0 - sym.z0)) <= 1e-15 * (
                1.0 + np.max(np.abs(sym.z0)))
            assert back.period == sym.period

    def test_distance_is_first_order_in_eps(self, problems,
                                            symmetric_results):
        for i in (0, 5):
            p, samples = problems[i]
            half = replace(p, sys=p.sys.with_eps(5e-4))
            res = _run([(half, samples)])[0]
            assert res.accepted and len(res.rung_starts) == 1
            sym = symmetric_results[SYMMETRIC.index(i)]
            assert 1.5 <= sym.distance / res.distance <= 3.0

    @pytest.mark.parametrize("case", list(STEPPED_EPS))
    def test_failed_direct_attempt_continues_on_the_ladder(
            self, orbit, stepped_results, case):
        # the direct run at eps = 1e-2 fails; the loop halves its step until
        # a run from the seed converges, then runs on from the branch points
        # it reached, each from the secant through the last two, doubling
        # its step after a run whose first trial contracts by less than
        # THETA_MAX / 2
        r = stepped_results[list(STEPPED_EPS).index(case)]
        assert r.accepted, r.reason
        assert r.eps == 1e-2 and r.distance <= 0.1
        # the re-check from a perigee in the cosine field closes to 1.1e-9
        # (+x1) and 4.1e-9 (-x1), the integrator's error at perigee, within
        # the re-check's bound 10 RESIDUAL_TOL
        if not case.startswith("cosine"):
            assert r.residual <= continuation.RESIDUAL_TOL
        rungs = [e for e, _ in r.rung_starts]
        assert rungs == [1e-2 * s for s in STEPPED_EPS[case]]
        # each run's trials at its eps, run after run
        assert [e for e, _ in groupby(e for e, *_ in r.history)] == rungs
        # each run starts closer than the seed is at the target
        assert all(first < r.rung_starts[0][1] for _, first in r.rung_starts[1:])
        assert (r.variational_solves + r.jacobian_reuses
                == r.newton_iters == len(r.history))
        assert r.half_condition >= 1.0
        if case.startswith("cosine"):
            # for odd n, half a period from a perigee on x1 ends at an apogee
            # on x1: the perigee solution on +x1 is the state at T/2 of the
            # apogee solution at -1e-2, and the one on -x1 that of the
            # apogee solution at +1e-2 turned by pi (measured 1.9e-10 and
            # 1.2e-10)
            eps = 1e-2 if case.endswith("-x1") else -1e-2
            apogee = continue_fixed_period(ShootingProblem(
                electric_system(orbit, eps), "fixed_period", orbit.z0,
                orbit.T))
            assert apogee.accepted
            half = math.copysign(1.0, -eps) * apogee.trajectory(0.5 * orbit.T)
            assert np.max(np.abs(r.z0 - half)) <= 1e-9

    @pytest.mark.parametrize("i, failure", [
        (0, "first solve"), (4, "first solve"), (0, "later solve"),
        (4, "later solve"), (0, "seed shot"), (4, "seed shot"),
        (0, "trial shot"), (4, "trial shot"), (4, "MAX_NEWTON"),
        (0, "no contraction"), (4, "no contraction")])
    def test_failed_attempt_falls_back_to_the_ladder(
            self, problems, i, failure, monkeypatch):
        # a step that fails in any way halves, and the loop runs on from the
        # last branch point, here the seed: after a direct run at 1e-3 that
        # fails, it runs as it does after a direct run whose seed shot fails
        # (the reference, run under the same patches)
        p, samples = problems[i]
        if failure == "MAX_NEWTON":
            # one step is not enough at eps = 1e-3, nor at any smaller eps
            monkeypatch.setattr(continuation, "MAX_NEWTON", 1)
        elif failure == "no contraction":
            # no first trial contracts enough, unless it converges
            monkeypatch.setattr(continuation, "THETA_MAX", 0.0)
        runs = []
        for kind in (failure, "seed shot"):
            name, call = (("integrate_with_variational",
                           flow.integrate_with_variational)
                          if "solve" in kind else ("endpoint", flow.endpoint))
            nth = 2 if kind in ("later solve", "trial shot") else 1
            with monkeypatch.context() as mp:
                if kind not in ("MAX_NEWTON", "no contraction"):
                    mp.setattr(continuation, name,
                               failing_half_shot(call, nth, [], p.T))
                runs.append(_run([(p, samples)])[0])
        res, ref = runs
        assert np.array_equal(res.z0, ref.z0)
        assert res.period == ref.period
        assert res.residual == ref.residual
        assert res.reason == ref.reason
        assert res.accepted == ref.accepted
        assert res.half_condition == ref.half_condition
        assert res.rung_starts[1:] == ref.rung_starts[1:]
        # half the step, from the seed, converges and doubles its step back
        # to the target; where no step converges, they halve down to
        # EPS_START
        halving = failure in ("MAX_NEWTON", "no contraction")
        assert [e for e, _ in res.rung_starts] == (
            [1e-3, 5e-4, 2.5e-4, 1.25e-4] if halving else [1e-3, 5e-4, 1e-3])
        assert res.accepted != halving
        # the failed attempt stays in the history and the counts: a shot at
        # the seed and one per step, a variational solve per point stepped
        # from
        tried = len(res.history) - len(ref.history)
        assert res.history[tried:] == ref.history
        assert all(e[0] == 1e-3 for e in res.history[:tried])
        assert (tried, res.variational_solves - ref.variational_solves,
                res.state_shots - ref.state_shots) == {
            "first solve": (0, 1, 0), "later solve": (1, 2, 1),
            "seed shot": (0, 0, 0), "trial shot": (1, 1, 1),
            "MAX_NEWTON": (1, 1, 1), "no contraction": (1, 1, 1)}[failure]
        if failure == "trial shot":
            assert res.history[0][1:] == (math.inf, False)

    @pytest.mark.parametrize("mode", ["fixed_period"])
    def test_harmonic_half_system_falls_back(self, mode):
        # the harmonic oscillator is degenerate: its half-system is
        # singular at eps = 0, and Newton from the seed does not contract
        # (Theta_0 = 1 to 6 digits) at its first step, at the target eps
        # and at every half of it down to EPS_START
        prob = harmonic_problem(mode)
        assert _on_fix(prob)
        res = continuation._continue(prob)
        assert not res.accepted
        assert res.reason == "no contraction at eps=0.000125"
        rungs = [1e-3, 5e-4, 2.5e-4, 1.25e-4]
        assert [e for e, _ in res.rung_starts] == rungs
        assert [e for e, *_ in res.history] == rungs
        assert min(res.contractions) >= continuation.THETA_MAX
        assert res.half_condition is None
        assert np.array_equal(res.z0, prob.seed)

    def test_direct_run_to_another_family_is_refused(
            self, constant_field_cases):
        # the apogee seed 0 of the 2 x 2 grid in a constant field along x1
        # at eps = 1e-2, fixed energy: Newton straight from the seed lands
        # on an orbit of another family (period 10.83, the base orbit's
        # 13.96, at distance 1.45 from the manifold), which closes and keeps
        # its energy.  Its first trial contracts by Theta_0 = 10.3, so the
        # run ends there, and the loop follows the seed's own branch
        p, samples = constant_field_cases[1]
        assert p.mode == "fixed_energy"
        assert np.array_equal(p.seed, samples.states[0])
        r = _run([(p, samples)])[0]
        assert r.accepted, r.reason
        assert r.distance <= 0.1
        assert abs(r.period - p.T) <= 0.01
        # the direct run's one trial lowered |R| without converging
        assert r.rung_starts[0][0] == r.history[0][0] == 1e-2
        assert r.rung_starts[1][0] == r.history[1][0] == 5e-3
        assert r.history[0][2] and r.history[0][1] > continuation.RESIDUAL_TOL
        assert r.contractions[0] >= continuation.THETA_MAX

    def test_harmonic_fixed_energy_converges_on_the_half_system(self):
        # at fixed energy Newton on the degenerate half-system converges
        # from the seed; every orbit of the shifted oscillator has period
        # 2 pi, which the result meets to 9.8e-14
        prob = harmonic_problem("fixed_energy")
        assert _on_fix(prob)
        res = continuation._continue(prob)
        assert res.accepted
        assert_plain_newton(res)
        assert abs(res.period - 2.0 * math.pi) <= HARMONIC_PERIOD_TOL
        # accepted on a singular half-system, which the result shows: the
        # last Jacobian solved with has condition 2.7e10, against 331-11,814
        # at the regular symmetric solutions
        assert res.half_condition >= 1e9


# --- an exact reference: the Larmor reduction of rotating_frame ---

class Larmor:
    """Closed-form k:n solutions in a uniform magnetic field B = b z, for
    the classical law with m = 1.  In symmetric gauge H = K_eff - omega L
    with the Larmor rate omega = b/2, and K_eff, with
    V_eff = V - omega^2 r^2/2, commutes with L.  So a solution in the plane
    normal to B is a K_eff orbit turned at the rate -omega: it advances by
    2 phi_eff - omega tau_eff per radial period, closes as k:n when
    n (2 phi_eff - omega tau_eff) = 2 pi k, and has period n tau_eff.
    ``rotating_frame`` is b = -eps in Landau gauge, ``uniform_magnetic``
    with B0 = (0, 0, 1) is b = eps."""

    def __init__(self, V, k, n, omega):
        self.k, self.n, self.omega = k, n, omega
        c = omega * omega
        self.V_eff = Potential(
            "custom", lambda r: V.V(r) - 0.5 * c * r**2,
            lambda r: V.dV(r) - c * r, lambda r: V.d2V(r) - c,
            lambda a, b: V.V_div(a, b) - 0.5 * c * (a + b))

    def _conditions(self, K, ell):
        # (T, turn mismatch) of the K_eff orbit at (K, ell)
        p = radial_profile(CLASSICAL, self.V_eff, K, ell)
        return (self.n * p.tau,
                self.n * (2.0 * p.phi - self.omega * p.tau)
                - 2.0 * math.pi * self.k)

    def profile_at_energy(self, h, L):
        """K_eff profile of the solution at energy h = K - omega ell, ell
        near L; its r_min and r_max are the extremes of |x| along it."""
        w = self.omega
        ell = brentq(lambda l: self._conditions(h + w * l, l)[1], 0.9 * L,
                     1.1 * L, xtol=1e-15, rtol=1e-15)
        return radial_profile(CLASSICAL, self.V_eff, h + w * ell, ell)

    def period_at_energy(self, h, L):
        """Period of the solution at energy h = K - omega ell, ell near L."""
        return self.n * self.profile_at_energy(h, L).tau

    def energy_at_period(self, T, h, L):
        """Energy K - omega ell of the solution of period T, from (h, L)."""
        sol = root(lambda x: np.subtract(self._conditions(*x), (T, 0.0)),
                   [h, L], tol=1e-14)
        assert np.max(np.abs(np.subtract(self._conditions(*sol.x),
                                         (T, 0.0)))) <= 1e-10
        K, ell = sol.x
        return K - self.omega * ell


LARMOR_ORBITS = {
    "alpha_05": (ALPHA_HALF, 4, 5, -1.9),
    "levi_civita": (Potential.levi_civita(1.0, 0.1), 7, 6, -0.55),
}
# Newton on the half-period system runs on to 1e-14 or below
LARMOR_PERIOD_TOL = 1e-9
LARMOR_ENERGY_TOL = 1e-10
# measured at most 3.6e-11 (alpha = 0.5 at eps = 1e-2); the extremes move
# from the unperturbed orbit's by 1.3e-4 at eps = 1e-4
LARMOR_RADIUS_TOL = 1e-10


@pytest.fixture(scope="module")
def larmor_orbits():
    return {name: find_closed_orbit(CLASSICAL, V, k, n, h)
            for name, (V, k, n, h) in LARMOR_ORBITS.items()}


def radial_extremes(sys, traj, T):
    """Smallest and largest |x| along a planar trajectory over [0, T]: |x|
    at both ends and at the roots of x . dx/dt, bracketed on a grid and
    refined by brentq on the dense output."""
    def g(t):
        z = traj(t)
        return float(z[:2] @ sys.vector_field(t, z)[:2])

    ts = np.linspace(0.0, T, 801)
    gs = [g(t) for t in ts]
    times = [0.0, T] + [brentq(g, a, b, xtol=1e-15, rtol=8.9e-16)
                        for a, b, ga, gb in zip(ts, ts[1:], gs, gs[1:])
                        if ga * gb < 0.0]
    r = np.linalg.norm(traj(np.array(times))[:, :2], axis=1)
    return r.min(), r.max()


def larmor_problem(orbits, name, mode, eps, seed):
    # seed 0 is the apogee, seed 1 the exact perigee (r_min, L/r_min), both
    # on the x1 line and so on Fix(R_0)
    orb = orbits[name]
    p = orb.profile
    z = orb.z0 if seed == 0 else np.array([p.r_min, 0.0, 0.0, p.L / p.r_min])
    sys = HamiltonianSystem(CLASSICAL, orb.potential,
                            Perturbation.rotating_frame(eps), 2)
    return ShootingProblem(sys, mode, z, orb.T, h=orb.profile.h)


def assert_direct_when_contracting(r):
    """r converged in its direct run exactly when that run's first trial
    contracted, Theta_0 < THETA_MAX (inf when it did not lower |R|)."""
    theta = r.contractions[0] if r.history[0][2] else math.inf
    assert (len(r.rung_starts) == 1) == (theta < continuation.THETA_MAX)


# the one Levi-Civita perigee run whose re-check closes within its bound
LEVI_CIVITA_PERIGEE_ACCEPTED = {("fixed_energy", 1e-2)}


def _larmor_run(orbits, name, mode, eps, seed):
    """The continuation of a Larmor problem, or None where it is rejected
    as expected: on the Levi-Civita 7:6 orbit from perigee, Newton
    converges on the half-period system, but the re-check's closure from
    perigee, 1.07e-8 to 1.57e-8 in Sundman time, misses its bound 1e-8:
    the integrator's error at perigee.  At fixed energy and eps = 1e-2 it
    closes to 9.2e-9, and the result is accepted and checked like the
    others.  At eps = 1e-4 a tol-1e-14 integration closes the same
    solution to 2.6e-10 from perigee and to 2.1e-11 to 2.2e-11 from T/4."""
    prob = larmor_problem(orbits, name, mode, eps, seed)
    orb, sys = orbits[name], prob.sys
    res = continuation._continue(prob)
    assert_direct_when_contracting(res)
    if ((name, seed) == ("levi_civita", 1)
            and (mode, eps) not in LEVI_CIVITA_PERIGEE_ACCEPTED):
        assert not res.accepted
        assert res.reason.startswith("re-check failed: closure ")
        return None
    assert res.accepted, res.reason
    V, k, n, _ = LARMOR_ORBITS[name]
    return orb, sys, res, V, k, n


class TestLarmorReference:
    @pytest.mark.parametrize("name, eps, seed", [
        ("alpha_05", 1e-4, 0), ("alpha_05", 1e-3, 0), ("alpha_05", 1e-2, 0),
        ("alpha_05", 1e-4, 1), ("alpha_05", 1e-2, 1), ("levi_civita", 1e-4, 0),
        ("levi_civita", 1e-3, 0), ("levi_civita", 1e-2, 0),
        ("levi_civita", 1e-4, 1), ("levi_civita", 1e-2, 1),
    ])
    def test_fixed_energy_period(self, larmor_orbits, name, eps, seed):
        run = _larmor_run(larmor_orbits, name, "fixed_energy", eps, seed)
        if run is None:
            return
        orb, sys, res, V, k, n = run
        h, L = orb.profile.h, orb.profile.L
        profile = Larmor(V, k, n, -eps / 2.0).profile_at_energy(h, L)
        T = n * profile.tau
        assert abs(res.period - T) <= LARMOR_PERIOD_TOL
        # |x| does not depend on the gauge or the turning frame
        r_min, r_max = radial_extremes(sys, res.trajectory, res.period)
        assert abs(r_min - profile.r_min) <= LARMOR_RADIUS_TOL
        assert abs(r_max - profile.r_max) <= LARMOR_RADIUS_TOL
        # the opposite sign of omega misses by 1.5e-3 at eps = 1e-4
        wrong = Larmor(V, k, n, eps / 2.0).period_at_energy(h, L)
        assert abs(res.period - wrong) > 1e-4

    @pytest.mark.parametrize("name, eps, seed", [
        ("alpha_05", 1e-4, 0), ("alpha_05", 1e-3, 0), ("alpha_05", 1e-4, 1),
        ("alpha_05", 1e-2, 1), ("levi_civita", 1e-4, 0),
        ("levi_civita", 1e-3, 0), ("levi_civita", 1e-4, 1),
        ("levi_civita", 1e-2, 1),
    ])
    def test_fixed_period_energy(self, larmor_orbits, name, eps, seed):
        run = _larmor_run(larmor_orbits, name, "fixed_period", eps, seed)
        if run is None:
            return
        orb, sys, res, V, k, n = run
        h = Larmor(V, k, n, -eps / 2.0).energy_at_period(
            orb.T, orb.profile.h, orb.profile.L)
        assert abs(sys.hamiltonian(0.0, res.z0) - h) <= LARMOR_ENERGY_TOL

    def test_spatial_magnetic_period(self, orbit3, symmetric_results):
        # the spatial fixed-energy solution in B = eps x3 lies in the plane
        # normal to B, where the same reduction holds with omega = eps/2
        res = symmetric_results[SYMMETRIC.index(5)]
        assert res.z0[2] == res.z0[5] == 0.0
        T = Larmor(ALPHA_HALF, 4, 5, 0.5e-3).period_at_energy(
            orbit3.profile.h, orbit3.profile.L)
        assert abs(res.period - T) <= LARMOR_PERIOD_TOL


# the apogee seeds of TestLarmorReference: (name, mode, eps)
LARMOR_APOGEE = tuple(
    [(name, "fixed_energy", eps) for name in LARMOR_ORBITS
     for eps in (1e-4, 1e-3, 1e-2)]
    + [(name, "fixed_period", eps) for name in LARMOR_ORBITS
       for eps in (1e-4, 1e-3)])
# with every half-period Jacobian at DEFAULT_TOL the symmetric solutions
# move by at most 7.8e-12 in z0 and 4.8e-12 in the period: bounds about
# 10x above
SYMMETRIC_Z0_TOL = 1e-10
SYMMETRIC_PERIOD_TOL = 5e-11


@pytest.fixture(scope="module")
def symmetric_and_exact_jacobian(symmetric_problems, symmetric_results,
                                 larmor_orbits):
    """(result, reference result) for every problem of
    ``symmetric_problems`` and the Larmor apogee seeds, the reference
    solving every half-period Jacobian at DEFAULT_TOL."""
    cases = ([p for p, _ in symmetric_problems]
             + [larmor_problem(larmor_orbits, name, mode, eps, 0)
                for name, mode, eps in LARMOR_APOGEE])
    fast = symmetric_results + [continuation._continue(p)
                                for p in cases[len(symmetric_problems):]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "_jacobian_tol", _exact_jacobian_tol)
        ref = [continuation._continue(p) for p in cases]
    return list(zip(fast, ref))


class TestInexactHalfPeriodJacobian:
    def test_same_solutions_as_exact_jacobians(
            self, symmetric_and_exact_jacobian):
        # symmetric solutions are isolated on Fix(R_a): z0 is compared
        # pointwise
        for fast, ref in symmetric_and_exact_jacobian:
            assert_direct_when_contracting(fast)
            assert [e for e, _ in fast.rung_starts] == [
                e for e, _ in ref.rung_starts]
            assert fast.accepted and ref.accepted
            assert fast.newton_iters == ref.newton_iters
            assert fast.variational_solves == ref.variational_solves
            assert fast.state_shots == ref.state_shots
            assert np.max(np.abs(fast.z0 - ref.z0)) <= SYMMETRIC_Z0_TOL
            assert abs(fast.period - ref.period) <= SYMMETRIC_PERIOD_TOL


# --- Jacobian reuse against a fresh Jacobian at every trial ---

def _no_reuse(theta, res):
    # every trial with a Jacobian solved at its point: the reference path of
    # Jacobian reuse
    return False


# the Larmor perigee seeds of TestLarmorReference: (name, mode, eps)
LARMOR_PERIGEE = tuple((name, mode, 1e-4) for name in LARMOR_ORBITS
                       for mode in ("fixed_energy", "fixed_period"))
# a reused Jacobian moves the solutions by at most 5.3e-11 in z0 and
# 3.0e-11 in the distance (the answers digest's continuation results)
REUSE_Z0_TOL = 1e-9
REUSE_PERIOD_TOL = 1e-9
REUSE_DISTANCE_TOL = 1e-6


@pytest.fixture(scope="module")
def constant_field_cases(orbit):
    """(problem, samples) of the answers digest's constant-field seeds: the
    apsis seeds 0 and 2 of the 2 x 2 planar grid in a constant field along
    x1 at eps = 1e-2, in both modes, but for seed 0 at fixed period, which
    is the first seed of ``STEPPED_EPS``."""
    samples = manifold_samples(orbit, 2, 2, group="planar")
    sys = electric_system(orbit, 1e-2, profile="constant")
    return [(ShootingProblem(sys, mode, samples.states[i], orbit.T,
                             h=orbit.profile.h), samples)
            for mode, i in (("fixed_period", 2), ("fixed_energy", 0),
                            ("fixed_energy", 2))]


@pytest.fixture(scope="module")
def reused_and_reference(symmetric_problems, symmetric_results, stepped_cases,
                         stepped_results, constant_field_cases,
                         symmetric_and_exact_jacobian, larmor_orbits):
    """(result, reference result) for the symmetric and ``STEPPED_EPS``
    problems, the digest's constant-field seeds and the Larmor seeds, the
    reference solving a fresh Jacobian at every trial."""
    distanced = symmetric_problems + stepped_cases + constant_field_cases
    apogee = [larmor_problem(larmor_orbits, name, mode, eps, 0)
              for name, mode, eps in LARMOR_APOGEE]
    perigee = [larmor_problem(larmor_orbits, name, mode, eps, 1)
               for name, mode, eps in LARMOR_PERIGEE]
    fast = (symmetric_results + stepped_results + _run(constant_field_cases)
            + [f for f, _ in
               symmetric_and_exact_jacobian[len(symmetric_problems):]]
            + [continuation._continue(p) for p in perigee])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "_reuse_jacobian", _no_reuse)
        ref = _run(distanced) + [continuation._continue(p)
                                 for p in apogee + perigee]
    return list(zip(fast, ref))


class TestJacobianReuse:
    def test_same_answers_as_fresh_jacobians(self, reused_and_reference):
        for fast, ref in reused_and_reference:
            assert ref.jacobian_reuses == 0
            assert fast.accepted == ref.accepted
            assert fast.reason == ref.reason
            assert fast.newton_iters == ref.newton_iters
            assert (fast.variational_solves + fast.jacobian_reuses
                    == ref.variational_solves)
            if fast.accepted:
                assert np.max(np.abs(fast.z0 - ref.z0)) <= REUSE_Z0_TOL * (
                    1.0 + np.max(np.abs(ref.z0)))
                assert abs(fast.period - ref.period) <= REUSE_PERIOD_TOL
            if ref.distance is not None:
                assert fast.distance == pytest.approx(
                    ref.distance, rel=REUSE_DISTANCE_TOL)
        # the spatial problem and runs at eps = 1e-2 reuse
        assert sum(f.jacobian_reuses for f, _ in reused_and_reference) >= 5

    def test_fires_on_the_spatial_problem_and_not_the_grid(
            self, symmetric_results):
        # the contraction of each accepted trial's Jacobian predicts the
        # residual of a step that reuses it as 2 Theta |R|: 1.2e-10 on the
        # spatial problem's second trial, 3.8e-9 and 2.3e-9 on the grid's
        # apogee seeds, against REUSE_RESIDUAL = 2.5e-10
        grid = symmetric_results[:2]
        spatial = symmetric_results[SYMMETRIC.index(5)]
        assert (spatial.newton_iters, spatial.variational_solves,
                spatial.jacobian_reuses) == (3, 2, 1)
        for r in grid:
            assert r.jacobian_reuses == 0
            assert r.variational_solves == r.newton_iters == 3
        for r in (spatial, *grid):
            assert len(r.contractions) == len(r.history)
            predicted = 2.0 * r.contractions[1] * r.history[1][1]
            assert (predicted <= continuation.REUSE_RESIDUAL) == (r is spatial)

    @pytest.mark.parametrize("i", [0, 4])
    def test_a_rejected_reused_trial_takes_a_fresh_jacobian(
            self, problems, symmetric_results, i, monkeypatch):
        # reuse forced from the first point where the rule is asked (the
        # second trial's end), and the reusing trial's shot ended early: the
        # trial is rejected, and the run solves a fresh Jacobian at the same
        # point, whose trial is the third of the unforced run
        p, _ = problems[i]
        r = symmetric_results[SYMMETRIC.index(i)]
        assert r.newton_iters == 3 and r.jacobian_reuses == 0
        monkeypatch.setattr(continuation, "_reuse_jacobian",
                            lambda theta, res: True)
        monkeypatch.setattr(continuation, "endpoint", failing_half_shot(
            flow.endpoint, 4, [], p.T))
        res = continuation._continue(p)
        assert res.accepted and res.reason == "ok"
        assert res.history == (r.history[:2] + ((r.eps, math.inf, False),)
                               + r.history[2:])
        assert (res.newton_iters, res.variational_solves,
                res.jacobian_reuses) == (4, 3, 1)
        assert res.contractions == r.contractions
        assert np.array_equal(res.z0, r.z0) and res.period == r.period

    @pytest.mark.parametrize("i", [0, 4])
    def test_a_forced_reuse_serves_one_trial(self, problems,
                                             symmetric_results, i,
                                             monkeypatch):
        # reuse forced wherever the rule is asked: each reused Jacobian
        # serves one trial, the next solves a fresh one, and the run still
        # converges to the same solution
        p, _ = problems[i]
        r = symmetric_results[SYMMETRIC.index(i)]
        shots, solved = [], []  # the trials whose Jacobian was solved

        def shot(*args, **kwargs):
            shots.append(args)
            return flow.endpoint(*args, **kwargs)

        def solve(*args, **kwargs):
            # the first shot and one per trial before: this is trial
            # len(shots)'s Jacobian
            solved.append(len(shots))
            return flow.integrate_with_variational(*args, **kwargs)

        monkeypatch.setattr(continuation, "_reuse_jacobian",
                            lambda theta, res: True)
        monkeypatch.setattr(continuation, "endpoint", shot)
        monkeypatch.setattr(continuation, "integrate_with_variational", solve)
        res = continuation._continue(p)
        assert res.accepted and res.reason == "ok"
        assert (res.variational_solves + res.jacobian_reuses
                == res.newton_iters == len(res.history))
        trials = range(1, res.newton_iters + 1)
        reused = [k for k in trials if k not in solved]
        assert solved[:2] == [1, 2] and len(reused) == res.jacobian_reuses >= 1
        assert all(k + 1 in solved for k in reused if k < res.newton_iters)
        assert np.max(np.abs(res.z0 - r.z0)) <= REUSE_Z0_TOL * (
            1.0 + np.max(np.abs(r.z0)))
        assert abs(res.period - r.period) <= REUSE_PERIOD_TOL


# --- the reduced functional ---

def direct_gamma(orbit, pert, M, theta, nodes=2048):
    """Gamma at the element (M, theta) by the trapezoid rule over the copy
    t -> M x(t - theta) itself, with nodes per radial period: U1 = g(t) e.x
    for the electric field, A1 = B0 x x / 2 for the magnetic field and
    A1 = (x2, 0) for rotating_frame."""
    N = orbit.n * nodes
    t = orbit.T * np.arange(N) / N
    z = orbit.states(t - theta)
    d, D = orbit.dim, M.shape[0]
    p = z[:, d:]
    s = np.linalg.norm(p, axis=1)
    v = (orbit.law.f_inv(s) / s)[:, None] * p
    X = np.pad(z[:, :d], ((0, 0), (0, D - d))) @ M.T
    Vel = np.pad(v, ((0, 0), (0, D - d))) @ M.T
    f = np.zeros(N)
    if pert.family == "uniform_electric":
        g = (np.cos(2.0 * math.pi * t / pert.T_forcing)
             if pert.profile == "cosine" else 1.0)
        f = g * (X @ np.array(pert.e_vec))
    elif pert.family == "uniform_magnetic":
        f = np.sum(0.5 * np.cross(np.array(pert.B0), X) * Vel, axis=1)
    elif pert.family == "rotating_frame":
        f = X[:, 1] * Vel[:, 0]
    return orbit.T / N * float(np.sum(f))


def turned(group, psi, M):
    """exp(sum psi_i G_i) M: the turn by psi about x3 in the plane, by the
    rotation vector psi in space."""
    if group == "planar":
        c, s = math.cos(psi[0]), math.sin(psi[0])
        return np.array([[c, -s], [s, c]]) @ M
    return Rotation.from_rotvec(psi).as_matrix() @ M


def matrix(group, M):
    return turned(group, [M], np.eye(2)) if group == "planar" else M


@pytest.fixture(scope="module")
def alpha15():
    # the pool's alpha = 1.5 3:2 orbit (n = 2)
    return find_closed_orbit(CLASSICAL, Potential.homogeneous(1.0, 1.5), 3, 2,
                             -0.5)


# closed forms against direct quadrature and differences: Gamma measured to
# 2.0e-12, the gradient against central differences (step 1e-4) to 4.7e-9
# and the Hessian against second differences (step 1e-3) to 3.9e-7, each
# relative to the largest value of its kind over the case
GAMMA_TOL = 1e-10
GRADIENT_TOL = 1e-7
HESSIAN_TOL = 1e-5


def reference_cases(orbit, orbit3, alpha15):
    """(orbit, perturbation, group) of the reference test: the plane and
    SO(3), electric fields off the axes, a tilted magnetic field."""
    return {
        "planar cosine 4:5": (orbit, Perturbation.uniform_electric(
            (0.6, -0.8), 1e-3, profile="cosine", T_forcing=orbit.T),
            "planar"),
        "planar cosine 3:2": (alpha15, Perturbation.uniform_electric(
            (0.6, -0.8), 1e-3, profile="cosine", T_forcing=alpha15.T),
            "planar"),
        "planar rotating_frame": (orbit, Perturbation.rotating_frame(1e-3),
                                  "planar"),
        "SO3 cosine 4:5": (orbit3, Perturbation.uniform_electric(
            (0.3, -0.5, 0.8), 1e-3, profile="cosine", T_forcing=orbit3.T),
            "SO3"),
        "SO3 constant 3:2": (alpha15, Perturbation.uniform_electric(
            (0.3, -0.5, 0.8), 1e-3), "SO3"),
        "SO3 magnetic 4:5": (orbit3, Perturbation.uniform_magnetic(
            (0.2, -0.4, 1.0), 1e-3), "SO3"),
    }


class TestReducedFunctional:
    @pytest.mark.parametrize("family", ["uniform_magnetic", "rotating_frame"])
    def test_vector_potential_at_eps_zero_is_refused(self, family, orbit,
                                                     orbit3):
        # the first-order vector potential is DA / eps, which is 0 / 0 at
        # eps = 0 (NaN value, gradient and error before the refusal); the
        # electric field's first-order potential is e itself, so it still
        # gives a finite Gamma per unit eps there
        if family == "uniform_magnetic":
            pert = Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 0.0)
            orb, group, element = orbit3, "SO3", (np.eye(3), 0.0)
        else:
            pert = Perturbation.rotating_frame(0.0)
            orb, group, element = orbit, "planar", (0.0, 0.0)
        with pytest.raises(ValueError, match="eps = 0"):
            continuation.reduced_functional(orb, pert, group, [element])
        electric = Perturbation.uniform_electric((1.0, 0.0, 0.0)[:orb.dim],
                                                 0.0)
        (point,) = continuation.reduced_functional(orb, electric, group,
                                                   [element])
        assert np.isfinite(point.value)
        assert np.all(np.isfinite(point.gradient))
        assert np.isfinite(point.gradient_error)

    @pytest.mark.parametrize("case", ["planar cosine 4:5", "planar cosine 3:2",
                                      "planar rotating_frame",
                                      "SO3 cosine 4:5", "SO3 constant 3:2",
                                      "SO3 magnetic 4:5"])
    def test_closed_forms_against_quadrature_and_differences(
            self, case, orbit, orbit3, alpha15):
        orb, pert, group = reference_cases(orbit, orbit3, alpha15)[case]
        rng = np.random.default_rng(7)
        tau = orb.profile.tau
        if group == "planar":
            elements = [(a, th) for a, th in zip(rng.uniform(0, 2 * math.pi, 3),
                                                 rng.uniform(0, orb.T, 3))]
        else:
            elements = [(M, th) for M, th in zip(
                Rotation.random(3, random_state=7).as_matrix(),
                rng.uniform(0, orb.T, 3))]
        points = continuation.reduced_functional(orb, pert, group, elements)
        r = 1 if group == "planar" else 3

        def gamma(element, u):
            # Gamma at the coordinates u = (psi, phi) of the element
            M, th = element
            return direct_gamma(orb, pert, turned(group, u[:r],
                                                  matrix(group, M)),
                                th + tau * u[r] / (2.0 * math.pi))

        scale = max(abs(direct_gamma(orb, pert, matrix(group, M), th))
                    for M, th in elements) + 1.0
        gscale = max(np.max(np.abs(p.gradient)) for p in points) + 1.0
        hscale = max(np.max(np.abs(p.hessian)) for p in points) + 1.0
        for element, point in zip(elements, points):
            u0 = np.zeros(r + 1)
            assert abs(point.value - gamma(element, u0)) <= GAMMA_TOL * scale
            E = np.eye(r + 1)
            h = 1e-4
            grad = [(gamma(element, h * E[i]) - gamma(element, -h * E[i]))
                    / (2 * h) for i in range(r + 1)]
            assert np.max(np.abs(point.gradient - grad)) <= GRADIENT_TOL * gscale
            h = 1e-3
            hess = np.empty((r + 1, r + 1))
            for i in range(r + 1):
                for j in range(r + 1):
                    hess[i, j] = sum(
                        si * sj * gamma(element, h * (si * E[i] + sj * E[j]))
                        for si in (1, -1) for sj in (1, -1)) / (4 * h * h)
            assert np.max(np.abs(point.hessian - hess)) <= HESSIAN_TOL * hscale
            # the error estimate, mostly the base orbit's own error, stays
            # far below any gradient the screen acts on: measured 6.8e-9
            # relative at most, on the 3:2 orbit, whose closure residual is
            # 1.3e-9
            assert point.gradient_error <= 1e-7 * gscale

    def test_one_mode_on_4_5_with_circles_of_rank_one(self, orbit):
        # item 5's hypothesis at first order: the 4:5 orbit has Fourier
        # modes m = 4 + 5j in units of 2 pi/T, so the resonant cosine
        # couples to m = -1 alone and Gamma is one mode in psi + 2 pi
        # theta/T (theta the samples' shift, the state M z(-theta)).  Its
        # critical set is two circles, psi + 2 pi theta/T = beta and
        # beta + pi, where the Hessian has rank 1
        T = orbit.T
        pert = Perturbation.uniform_electric((1.0, 0.0), 1e-3,
                                             profile="cosine", T_forcing=T)

        def at(elements):
            return continuation.reduced_functional(orbit, pert, "planar",
                                                   elements)

        ring = [p.value for p in at([(2 * math.pi * j / 16, 0.0)
                                     for j in range(16)])]
        modes = np.abs(np.fft.rfft(ring)) / 16
        assert np.all(np.delete(modes, 1) <= 1e-12 * modes[1])
        rng = np.random.default_rng(3)
        for psi, th, s in rng.uniform(0.0, 2 * math.pi, (4, 3)):
            one, other = at([(psi, th), (psi + s, th - s * T / (2 * math.pi))])
            assert abs(one.value - other.value) <= 1e-12 * modes[1]
        beta = math.atan2(-np.fft.rfft(ring)[1].imag, np.fft.rfft(ring)[1].real)
        circles = [(beta + k * math.pi - 2 * math.pi * th / T, th)
                   for k in (0, 1) for th in np.linspace(0.0, T, 5)]
        for point in at(circles):
            assert np.linalg.norm(point.gradient) <= point.gradient_error
            sv = np.linalg.svd(point.hessian, compute_uv=False)
            assert sv[0] >= 1.0 and sv[1] <= 1e-11 * sv[0]

    def test_isolated_critical_points_on_3_2(self, alpha15):
        # the prediction for n <= 2: the 3:2 orbit has the modes m = +1 and
        # m = -1, so Gamma has two modes and isolated critical points, 8 on
        # the torus, each with a Hessian of rank 2
        T, tau = alpha15.T, alpha15.profile.tau
        pert = Perturbation.uniform_electric((1.0, 0.0), 1e-3,
                                             profile="cosine", T_forcing=T)
        # Newton on grad Gamma from an 8 x 8 grid of (psi, theta)
        U = np.array([(psi, th)
                      for psi in np.linspace(0.0, 2 * math.pi, 8,
                                             endpoint=False)
                      for th in np.linspace(0.0, T, 8, endpoint=False)])
        for _ in range(30):
            points = continuation.reduced_functional(
                alpha15, pert, "planar", [tuple(u) for u in U])
            U = U + [np.linalg.lstsq(p.hessian, -p.gradient, rcond=None)[0]
                     * [1.0, tau / (2 * math.pi)] for p in points]
        found = []
        for u, p in zip(U, points):
            if np.linalg.norm(p.gradient) > p.gradient_error:
                continue
            if not any(abs(math.remainder(u[0] - a, 2 * math.pi))
                       + abs(math.remainder(u[1] - b, T)) <= 1e-6
                       for a, b in found):
                found.append(u)
            sv = np.linalg.svd(p.hessian, compute_uv=False)
            assert sv[1] >= 1e-2 * sv[0]
        assert len(found) == 8

    @pytest.mark.parametrize("family", ["constant", "cosine", "rotating_frame",
                                        "spatial constant", "spatial cosine",
                                        "magnetic"])
    def test_apsis_states_on_the_reversor_line_are_critical(
            self, family, orbit, orbit3):
        # Palais's principle of symmetric criticality: the copies whose
        # apogee (theta = 0) or perigee (theta = tau/2) lies on the line a of
        # the reversor R_a start on Fix(R_a) and are critical points of Gamma
        spatial = family in ("spatial constant", "spatial cosine", "magnetic")
        orb = orbit3 if spatial else orbit
        e = (0.6, 0.8, 0.0) if spatial else (0.6, 0.8)
        pert = {
            "constant": Perturbation.uniform_electric(e, 1e-3),
            "spatial constant": Perturbation.uniform_electric(e, 1e-3),
            "cosine": Perturbation.uniform_electric(
                e, 1e-3, profile="cosine", T_forcing=orb.T),
            "spatial cosine": Perturbation.uniform_electric(
                e, 1e-3, profile="cosine", T_forcing=orb.T),
            "rotating_frame": Perturbation.rotating_frame(1e-3),
            "magnetic": Perturbation.uniform_magnetic((0.0, 0.0, 1.0), 1e-3),
        }[family]
        a = reversor(pert)
        half = 0.5 * orb.profile.tau
        # the perigee at -tau/2 lies at the angle -k pi/n
        angles = [(a, 0.0), (a + math.pi, 0.0),
                  (a + math.pi * orb.k / orb.n, half),
                  (a + math.pi * orb.k / orb.n + math.pi, half)]
        if spatial:
            elements = [(Rotation.from_rotvec([0.0, 0.0, b]).as_matrix(), th)
                        for b, th in angles]
            group = "SO3"
        else:
            elements, group = angles, "planar"
        for (b, th), point in zip(angles, continuation.reduced_functional(
                orb, pert, group, elements)):
            z = rotate_plane(orb.states(-th), b)
            assert np.linalg.norm(reflect_apsis(z, a) - z) <= 1e-9
            assert np.linalg.norm(point.gradient) <= point.gradient_error

    @pytest.mark.parametrize("case", ["levi_civita constant",
                                      "relativistic constant",
                                      "alpha15 rotating_frame"])
    def test_flat_within_error(self, case, alpha15):
        # Gamma is flat at first order for a constant field on the n >= 2
        # Levi-Civita 7:6 and relativistic Kepler 4:3 orbits in space, and
        # for rotating_frame on the 3:2 orbit in the plane, where it is flat
        # only because the orbit closes: there its gradient is the base
        # orbit's own error (8.8e-12, above the quadrature's and rounding's
        # 3.5e-12), so the error estimate must cover it
        if case == "alpha15 rotating_frame":
            orb, group = alpha15, "planar"
            pert = Perturbation.rotating_frame(1e-3)
        else:
            law, V, k, n, h, kw = {
                "levi_civita constant": (CLASSICAL,
                                         Potential.levi_civita(1.0, 0.1),
                                         7, 6, -0.55, {}),
                "relativistic constant": (
                    KineticLaw.relativistic(m=1.0, c=1.0), Potential.kepler(),
                    4, 3, -0.2, {"L_seed": math.sqrt(16.0 / 7.0)}),
            }[case]
            orb, group = find_closed_orbit(law, V, k, n, h, dim=3, **kw), "SO3"
            pert = Perturbation.uniform_electric((0.3, -0.5, 0.8), 1e-3)
        samples = manifold_samples(orb, 3, 4, group=group)
        for point in continuation.reduced_functional(orb, pert, group,
                                                     samples.elements):
            assert np.linalg.norm(point.gradient) <= point.gradient_error
