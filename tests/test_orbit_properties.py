"""Property tests of the orbit layer over random inputs (deterministic draws)."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from cforbits.model import KineticLaw, Potential
from cforbits.orbit import find_closed_orbit, turning_points

CLASSICAL = KineticLaw.classical()
ALPHA_HALF = Potential.homogeneous(1.0, 0.5)

# near alpha = 0, V = 1/(alpha r^alpha) ~ 1/alpha - ln r and the constant
# 1/alpha cancels in h + V, so draws stay |alpha| >= 0.05 away from it
alphas = st.floats(-1.5, 1.8).filter(lambda a: abs(a) >= 0.05)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(r1=st.floats(0.1, 10.0), ratio=st.floats(1.05, 20.0), alpha=alphas)
def test_turning_points_round_trip(r1, ratio, alpha):
    # put the roots of p_r^2 = 2(h + V) - L^2/r^2 at r1 < r2 in closed form;
    # V is decreasing, so L^2 > 0, and the effective potential has a single
    # minimum, so (r1, r2) is the only annulus
    V = Potential.homogeneous(1.0, alpha)
    r2 = ratio * r1
    L2 = 2.0 * (V.V(r1) - V.V(r2)) / (r1**-2 - r2**-2)
    h = L2 / (2.0 * r1**2) - V.V(r1)
    r_min, r_max = turning_points(CLASSICAL, V, h, math.sqrt(L2))
    assert r_min == pytest.approx(r1, rel=1e-10)
    assert r_max == pytest.approx(r2, rel=1e-10)


@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(h=st.floats(-1.9, -1.2), kn=st.sampled_from([(3, 4), (4, 5), (5, 7)]))
def test_vary_h_recovers_the_energy_vary_L_started_from(h, kn):
    # alpha = 0.5 has the same apsidal range at every h < 0, so every target
    # is reachable in both search modes
    k, n = kn
    by_L = find_closed_orbit(CLASSICAL, ALPHA_HALF, k, n, h)
    by_h = find_closed_orbit(CLASSICAL, ALPHA_HALF, k, n, h + 0.05,
                             search="vary_h", L_seed=by_L.profile.L)
    assert by_h.profile.h == pytest.approx(h, abs=1e-9)
