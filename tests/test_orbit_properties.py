"""Property tests of the orbit layer over random inputs (deterministic draws)."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from perfbench import workloads
from scipy.optimize import brentq, minimize_scalar

import cforbits.orbit as orbit_module
from cforbits import cli
from cforbits.errors import (
    CircularDegenerateError,
    NoBoundOrbitError,
    QuadratureError,
    TargetOutOfRangeError,
)
from cforbits.model import KineticLaw, Potential
from cforbits.orbit import (
    _LADDER,
    _LADDER_RTOL,
    _RTOL,
    _SCAN,
    _SCAN2,
    _XTOL,
    _annulus,
    _brentq_rows,
    _feasible_L_interval,
    _converged_integrals,
    _integrand,
    _kin_on_scan,
    _nodes,
    _p2,
    _radial_integrals,
    _root_checks,
    _scan,
    find_closed_orbit,
    radial_jacobian,
    radial_profile,
    turning_points,
)

CLASSICAL = KineticLaw.classical()
ALPHA_HALF = Potential.homogeneous(1.0, 0.5)
KEPLER = Potential.kepler()
LEVI_CIVITA = Potential.levi_civita(1.0, 0.1)

# near alpha = 0, V = 1/(alpha r^alpha) ~ 1/alpha - ln r and the constant
# 1/alpha cancels in h + V, so draws stay |alpha| >= 0.05 away from it
alphas = st.floats(-1.5, 1.8).filter(lambda a: abs(a) >= 0.05)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(r1=st.floats(0.1, 10.0), ratio=st.floats(1.05, 20.0), alpha=alphas)
@example(r1=1.0006, ratio=1.0 + 1e-3, alpha=0.5)
@example(r1=1.0006, ratio=1.0 + 1e-4, alpha=1.5)
@example(r1=1.0006, ratio=1.0 + 1e-4, alpha=-1.0)
def test_turning_points_round_trip(r1, ratio, alpha):
    # put the roots of p_r^2 = 2(h + V) - L^2/r^2 at r1 < r2 in closed form;
    # V is decreasing, so L^2 > 0, and the effective potential has a single
    # minimum, so (r1, r2) is the only annulus.  The examples put a
    # near-circular annulus between two neighbouring grid radii (1.00058
    # and 1.00462), where no grid value is positive
    V = Potential.homogeneous(1.0, alpha)
    r2 = ratio * r1
    L2 = 2.0 * (V.V(r1) - V.V(r2)) / (r1**-2 - r2**-2)
    h = L2 / (2.0 * r1**2) - V.V(r1)
    r_min, r_max = turning_points(CLASSICAL, V, h, math.sqrt(L2))
    assert r_min == pytest.approx(r1, rel=1e-10)
    assert r_max == pytest.approx(r2, rel=1e-10)


# --- the feasible L interval against turning_points ---

# the (law, potential, h) triples of the benchmark's resonance survey
SURVEY_TRIPLES = (
    [(CLASSICAL, ALPHA_HALF, h) for h in (-1.5, -1.2, -1.9)]
    + [(CLASSICAL, LEVI_CIVITA, h) for h in (-0.5, -0.55, -0.6)]
    + [(KineticLaw.relativistic(c=3.0), KEPLER, -0.5)]
    + [(KineticLaw.relativistic(c=1.0), KEPLER, h) for h in (-0.2, -0.18, -0.22)]
)
LOWER_FLOOR = 1e-4


def _has_annulus(law, V, h, L):
    # the reference definition of a feasible L: turning_points finds a
    # bound non-circular annulus there
    try:
        turning_points(law, V, h, L)
        return True
    except (NoBoundOrbitError, CircularDegenerateError):
        return False


def _check_edges(law, V, h):
    try:
        lo, hi = _feasible_L_interval(law, V, h)
    except NoBoundOrbitError:
        # a draw whose annulus reaches past the scan: nothing to compare
        assume(False)
    assert _has_annulus(law, V, h, hi * (1.0 - 1e-9))
    # above the grid's edge, turning_points still finds the near-circular
    # annuli, each between two neighbouring grid radii, up to the circular
    # orbit's L_c = sqrt(max r^2 kin(h + V)), refined here off the grid
    if _has_annulus(law, V, h, hi * (1.0 + 1e-9)):
        r_min, r_max = turning_points(law, V, h, hi * (1.0 + 1e-9))
        assert not np.any((_SCAN > r_min) & (_SCAN < r_max))
    i = int(np.argmax(_SCAN2 * _kin_on_scan(law, V, h)))
    res = minimize_scalar(lambda r: -r * r * law.p_squared(h + V.V(r)),
                          bounds=(_SCAN[i - 1], _SCAN[i + 1]),
                          method="bounded", options={"xatol": 1e-14})
    assert hi <= math.sqrt(-res.fun)
    assert not _has_annulus(law, V, h, math.sqrt(-res.fun) * (1.0 + 1e-9))
    if lo > LOWER_FLOOR:
        assert _has_annulus(law, V, h, lo * (1.0 + 1e-9))
        assert not _has_annulus(law, V, h, lo * (1.0 - 1e-9))


@pytest.mark.parametrize("law, V, h", SURVEY_TRIPLES)
def test_feasible_interval_edges_on_survey_triples(law, V, h):
    _check_edges(law, V, h)


@st.composite
def law_potential_h(draw):
    """A kinetic law, a potential and an energy at which bound orbits
    exist: the relativistic law with 0 < alpha <= 1 and -0.9 m c^2 <= h < 0
    (alpha > 1 has no centrifugal barrier), the classical law with h > 0 for
    a confining homogeneous potential (alpha < 0) and h < 0 otherwise."""
    if draw(st.booleans()):
        c = draw(st.floats(1.0, 5.0))
        law = KineticLaw.relativistic(c=c)
        V = Potential.homogeneous(1.0, draw(st.floats(0.05, 1.0)))
        h = -draw(st.floats(0.02, 0.9)) * c**2
    else:
        law = CLASSICAL
        V = (Potential.levi_civita(1.0, draw(st.floats(0.01, 1.0)))
             if draw(st.booleans()) else Potential.homogeneous(1.0, draw(alphas)))
        confining = V.kind == "homogeneous" and V.params[1] < 0
        h = draw(st.floats(0.1, 3.0) if confining else st.floats(-1.5, -0.05))
    return law, V, h


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(lvh=law_potential_h())
def test_feasible_interval_edges(lvh):
    _check_edges(*lvh)


# --- the radial integrand against the quadratic closed form ---

@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(kind=st.sampled_from(["kepler", "levi_civita", "relativistic"]),
       m=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
       extra=st.floats(0.01, 1.0), f=st.floats(0.05, 0.9),
       t=st.floats(0.05, 0.95))
def test_integrand_is_the_quadratic_closed_form(kind, m, kappa, extra, f, t):
    # r^2 p^2 - L^2 is the quadratic A r^2 + B r + C with A = p_squared(h)
    # for V = kappa/r with either law and the Levi-Civita potential with
    # the classical law, so at its roots r_min < r_max
    # S = A (r - r_min)(r - r_max) / (r^2 (r - r_min)(r_max - r)) = -A/r^2.
    # extra is lam for Levi-Civita and 1/c for the relativistic law; h is
    # -f, or -f m c^2 for the relativistic law (bound orbits need
    # -m c^2 < h < 0); L is a fraction t of the way across the feasible
    # interval.  The roots are the quadratic's own, not turning_points',
    # whose absolute xtol is coarse at small radii
    if kind == "relativistic":
        law = KineticLaw.relativistic(m=m, c=1.0 / extra)
        h = -f * m / extra**2
    else:
        law = KineticLaw.classical(m=m)
        h = -f
    V = (Potential.levi_civita(kappa, extra) if kind == "levi_civita"
         else Potential.kepler(kappa))
    lo, hi = _feasible_L_interval(law, V, h)
    L = lo + t * (hi - lo)
    A = law.p_squared(h)
    if kind == "relativistic":
        B, C = 2.0 * kappa * (m + h * extra**2), (kappa * extra)**2 - L**2
    else:
        B = 2.0 * m * kappa
        C = (2.0 * m * extra if kind == "levi_civita" else 0.0) - L**2
    q = -0.5 * (B + math.sqrt(B * B - 4.0 * A * C))
    r_min, r_max = sorted((q / A, C / q))
    r2, _, S = _integrand(law, V, *np.array([h, r_min, r_max])[:, None, None,
                                                                None], (640,))
    assert np.allclose(S, -A / r2, rtol=1e-12, atol=0.0)


# --- the apsidal-angle scan shared by the targets of one energy level ---

# the benchmark survey's targets: coprime k:n, n <= 7, k pi / n in [pi/2, 2 pi]
SURVEY_TARGETS = tuple((k, n) for n in range(1, 8) for k in range(1, 2 * n + 1)
                       if math.gcd(k, n) == 1 and 2 * k >= n)


def _outcome(law, V, k, n, h):
    """The bits of the found orbit, or the type and message of the error."""
    try:
        orbit = find_closed_orbit(law, V, k, n, h)
    except Exception as exc:
        return type(exc), str(exc)
    return orbit.z0.tobytes(), orbit.T, orbit.profile, orbit.closure_residual


@pytest.mark.parametrize("law, V, h", SURVEY_TRIPLES)
def test_shared_scan_gives_the_cold_scans_bits(law, V, h):
    cold = []
    for k, n in SURVEY_TARGETS:
        _scan.cache_clear()
        cold.append(_outcome(law, V, k, n, h))
    # the cache now holds the scan the last target made; every target
    # reads it
    before = _scan.cache_info()
    warm = [_outcome(law, V, k, n, h) for k, n in SURVEY_TARGETS]
    after = _scan.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(SURVEY_TARGETS)
    assert warm == cold


def _scans_made(*calls):
    """Scans find_closed_orbit computes for the calls from an empty cache;
    each call's target, pi/2, is out of range, so no orbit is built."""
    _scan.cache_clear()
    for law, V, h, kw in calls:
        with pytest.raises(TargetOutOfRangeError):
            find_closed_orbit(law, V, 1, 2, h, **kw)
    return _scan.cache_info().misses


ALPHA_HALF_TWIN = Potential.homogeneous(1.0, 0.5)


@pytest.mark.parametrize("first, second", [
    ((CLASSICAL, LEVI_CIVITA, -0.5, {}), (CLASSICAL, LEVI_CIVITA, -0.55, {})),
    ((CLASSICAL, KEPLER, -0.5, {}),
     (KineticLaw.relativistic(c=3.0), KEPLER, -0.5, {})),
    ((CLASSICAL, ALPHA_HALF, -1.5, {}), (CLASSICAL, ALPHA_HALF_TWIN, -1.5, {})),
], ids=["h", "law", "equal_parameter_potential"])
def test_scans_are_kept_apart(first, second):
    assert _scans_made(first, second) == 2


def test_equal_parameter_potentials_are_not_equal():
    # Potential compares its callables by identity
    assert ALPHA_HALF_TWIN != ALPHA_HALF


def test_vary_L_scan_does_not_depend_on_L_seed():
    assert _scans_made((CLASSICAL, ALPHA_HALF, -1.5, {}),
                       (CLASSICAL, ALPHA_HALF, -1.5, {"L_seed": 0.5}),
                       (CLASSICAL, ALPHA_HALF, -1.5, {"L_seed": 0.7})) == 1


def test_a_scan_calls_no_rebindable_turning_points(monkeypatch):
    # a stand-in for turning_points (a test's, a tracer's) sees only the
    # calls radial_profile makes: a cold scan, whose target is out of
    # range, calls it not once, so a cached scan serves every binding
    seen = []
    monkeypatch.setattr(orbit_module, "turning_points",
                        lambda *args: seen.append(args) or turning_points(*args))
    assert _scans_made((CLASSICAL, ALPHA_HALF, -1.5, {})) == 1
    assert seen == []


def test_a_cached_scan_cannot_be_changed():
    key = (CLASSICAL, ALPHA_HALF, -1.5)
    xs, phis = _scan(*key)
    first = xs.copy(), phis.copy()
    for values in (xs, phis):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            values *= 2.0
    again = _scan(*key)
    assert again[0] is xs
    assert np.array_equal(again[0], first[0])
    assert np.array_equal(again[1], first[1])


# --- the batched scan against the per-point radial_profile ---

def _scan_cases():
    """Every survey triple, every nondeg_table row and the two anchors of
    the benchmark, as (label, law, potential, h)."""
    for stratum in workloads.SURVEY_STRATA:
        for t in stratum:
            yield (t.label, *t.build(), t.h)
    rows = (workloads.HARMONIC, workloads.KEPLER,
            *(row for stratum in workloads.TABLE_STRATA for row in stratum))
    for name, law, potential, orbit in rows:
        yield (name, cli._build_law(law), cli._build_potential(potential),
               orbit["h"])


SCAN_CASES = tuple(_scan_cases())


def _per_point(law, V, h, grid):
    xs, phis = [], []
    for L in grid:
        try:
            phis.append(radial_profile(law, V, h, L).phi)
            xs.append(L)
        except (NoBoundOrbitError, CircularDegenerateError, QuadratureError):
            continue
    return np.array(xs), np.array(phis)


@pytest.mark.parametrize("label, law, V, h", SCAN_CASES,
                         ids=[c[0] for c in SCAN_CASES])
def test_scan_is_the_per_point_profiles_bit_for_bit(label, law, V, h):
    # the scan's grid: 48 L values across the feasible interval, its ends
    # pulled inside by 0.1%
    L_lo, L_hi = _feasible_L_interval(law, V, h)
    grid = np.geomspace(L_lo * 1.001, 0.999 * L_hi, 48)
    xs, phis = _scan.__wrapped__(law, V, h)
    ref_xs, ref_phis = _per_point(law, V, h, grid)
    assert xs.tobytes() == ref_xs.tobytes()
    assert phis.tobytes() == ref_phis.tobytes()
    dropped = {"hom_a05_h-1.5": 0, "alpha_05": 0, "alpha_15": 12}.get(label)
    if dropped is not None:
        assert len(grid) - len(xs) == dropped


@pytest.mark.parametrize("label, law, V, h", SCAN_CASES,
                         ids=[c[0] for c in SCAN_CASES])
def test_scan_rows_hold_two_grid_radii(label, law, V, h):
    # the scan brackets a row's roots by the grid and drops a row with at
    # most one grid radius inside its annulus, which turning_points
    # brackets at its maximum: no benchmark row is such a row
    L_lo, L_hi = _feasible_L_interval(law, V, h)
    kin = _kin_on_scan(law, V, h)
    for L in np.geomspace(L_lo * 1.001, 0.999 * L_hi, 48):
        i0, i1 = _annulus(L, kin - L**2 / _SCAN2)
        assert i1 > i0


# --- the vectorized Brent pass against scipy's brentq ---

def _scalar(f, i):
    """Row i of the row objective f(i, x) as the float function brentq
    calls, evaluated on a one-element array: the same bits as in a batch."""
    return lambda x: float(f(np.array([i]), np.array([x]))[0])


def _assert_brentq_bits(f, a, b, scalar=_scalar):
    """_brentq_rows(f, a, b) against brentq(xtol=_XTOL, rtol=_RTOL) on
    each row alone, with scalar(f, i) the float function of row i: the
    same root, bit for bit, or the same exception type when any row
    raises."""
    ref, raised = [], None
    for i in range(len(a)):
        try:
            ref.append(brentq(scalar(f, i), a[i], b[i], xtol=_XTOL, rtol=_RTOL))
        except (ValueError, RuntimeError) as exc:
            raised = raised or type(exc)
    if raised:
        with pytest.raises(raised):
            _brentq_rows(f, a, b)
        return
    roots = _brentq_rows(f, a, b)
    assert roots.tobytes() == np.array(ref).tobytes()


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(lvh=law_potential_h(),
       fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6))
def test_brent_pass_is_brentq_on_turning_point_rows(lvh, fractions):
    # rows as _scan builds them: several L at one (law, V, h), both turning
    # points of each in one batch, with _p2 and L^2 squared per row; each
    # root against brentq on the objective of turning_points, _p2 at a
    # float
    law, V, h = lvh
    try:
        lo, hi = _feasible_L_interval(law, V, h)
    except NoBoundOrbitError:
        assume(False)
    kin = law.p_squared(h + V.V(_SCAN))
    L2s, a, b = [], [], []
    for frac in fractions:
        L = lo + frac * (hi - lo)
        ends = _annulus(L, kin - L**2 / _SCAN2)
        if ends is None:
            continue
        i0, i1 = ends
        L2s.append(L**2)
        a += [_SCAN[i0 - 1], _SCAN[i1]]
        b += [_SCAN[i0], _SCAN[i1 + 1]]
    assume(L2s)
    L2 = np.repeat(L2s, 2)
    _assert_brentq_bits(lambda i, r: _p2(law, V, h, L2[i], r),
                        np.array(a), np.array(b),
                        lambda f, i: lambda r: float(_p2(law, V, h, L2[i], r)))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(lvh=law_potential_h(), L=st.floats(0.01, 3.0))
def test_p2_is_elementwise(lvh, L):
    # a radius gets the same bits alone, as brentq passes it to the
    # objective of turning_points, and in the array of a Brent pass: the
    # relativistic (e/c)^2 of law.p_squared is one product q * q on both
    # (a float's q ** 2 would be C pow, a square on an array)
    law, V, h = lvh
    r = np.geomspace(1e-3, 1e3, 2000)
    alone = [float(_p2(law, V, h, L**2, x)) for x in r.tolist()]
    assert _p2(law, V, h, L**2, r).tobytes() == np.array(alone).tobytes()


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(lvh=law_potential_h(), L=st.floats(0.01, 3.0))
def test_p2_is_p_squared_at_a_float_radius(lvh, L):
    # at a lone radius, the 0-d array of a float that brentq passes, _p2 is
    # law.p_squared(h + V(r)) - L^2/r^2 bit for bit: _p2 calls p_squared
    # and keeps no formula of its own, so p_squared must square the same
    # way on a 0-d array as on a float
    law, V, h = lvh
    L2 = L**2
    r = [np.asarray(x) for x in np.geomspace(1e-3, 1e3, 2000).tolist()]
    alone = [float(_p2(law, V, h, L2, x)) for x in r]
    objective = [float(law.p_squared(h + V.V(x)) - L2 / x**2) for x in r]
    assert np.array(alone).tobytes() == np.array(objective).tobytes()


def _synthetic(kind, x0, k, a, b):
    """Row objectives with a root at x0 in [a, b], by kind: 0 a power
    ((x - a)/(b - a))^k minus its value at x0 (the bisection branch at
    k = 10), 1 the cubic (x - x0)^3 + k (b - a)^2 (x - x0) (interpolation,
    extrapolation and rejected steps), 2 the decreasing rational
    1/(x - a + k (b - a)) minus its value at x0 (extrapolation and rejected
    steps) and 3 the line x - x0 plus noise of k 1e-16 (b - a) times a
    hash of the bits of x, whose steps near the root land on either side
    of the step bound min(|spre|, 3 |sbis| - delta) by less than delta."""
    kind, x0, k, a, b = map(np.array, (kind, x0, k, a, b))
    w = b - a

    def f(i, x):
        t, t0 = (x - a[i]) / w[i], (x0[i] - a[i]) / w[i]
        power = t ** k[i] - t0 ** k[i]
        cubic = (x - x0[i]) ** 3 + k[i] * w[i] ** 2 * (x - x0[i])
        rational = 1.0 / (t + k[i]) - 1.0 / (t0 + k[i])
        noise = ((x.view(np.int64) * 523436) % 2003).astype(float) - 1001.0
        noisy = (x - x0[i]) + k[i] * 1e-16 * w[i] * noise
        return np.select([kind[i] == 0, kind[i] == 1, kind[i] == 2],
                         [power, cubic, rational], noisy)

    return f


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(rows=st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3]), st.floats(0.01, 0.99),
              st.floats(1e-3, 12.0), st.floats(-10.0, 10.0),
              st.floats(1e-3, 10.0)),
    min_size=1, max_size=8))
def test_brent_pass_is_brentq_on_synthetic_brackets(rows):
    kind, frac, k, a, width = map(list, zip(*rows))
    a, b = np.array(a), np.array(a) + np.array(width)
    x0 = a + np.array(frac) * (b - a)
    k = [max(kk, 2.0) if kd == 0 else kk for kd, kk in zip(kind, k)]
    _assert_brentq_bits(_synthetic(kind, x0, k, a, b), a, b)


def test_brent_pass_takes_each_branch_as_brentq_does():
    # x^10 - 1/2 on [0, 1] takes brentq.c's bisection, interpolation and
    # extrapolation steps; the cubic with a small linear part takes
    # rejected extrapolations; the noisy line has a step within delta of
    # the bound 3 |sbis| - delta; the pure cubic does not converge in 100
    # iterations, so both raise RuntimeError
    f = _synthetic([0, 1, 2, 3], [0.5**0.1, 0.3, 0.7, 0.1711485121970176],
                   [10.0, 1e-3, 1e-2, 8.122944120409179], [0.0] * 4, [1.0] * 4)
    _assert_brentq_bits(f, np.zeros(4), np.ones(4))
    cubic = lambda i, x: (x - 0.3) ** 3
    with pytest.raises(RuntimeError):
        brentq(_scalar(cubic, 0), 0.0, 1.0, xtol=_XTOL, rtol=_RTOL)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq_rows(cubic, np.zeros(1), np.ones(1))


def test_root_checks_are_elementwise_and_name_each_failure():
    # the checks that turning_points and the scan both apply to refined
    # roots: true roots pass, coincident roots are circular (and not also
    # hollow), and roots around a region where _p2 is negative are hollow;
    # the three rows in one array get the verdicts they get as floats
    h, L = -0.5, 0.8
    L2 = L**2
    r_min, r_max = turning_points(CLASSICAL, KEPLER, h, L)
    rows = [(r_min, r_max), (r_min, r_min), (r_max, 2.0 * r_max)]
    alone = [tuple(bool(v) for v in _root_checks(CLASSICAL, KEPLER, h, L2, a, b))
             for a, b in rows]
    assert alone == [(False, False), (True, False), (False, True)]
    a, b = np.array(rows).T
    coincide, hollow = _root_checks(CLASSICAL, KEPLER, np.full(3, h),
                                    np.full(3, L2), a, b)
    assert list(zip(coincide.tolist(), hollow.tolist())) == alone


def test_brent_pass_zero_at_a_bracket_end():
    # f(a) = 0, f(b) = 0, both (a is returned) and an interior root, in one
    # batch
    a, b = np.array([1.0, 0.0, 1.0, 0.5]), np.array([2.0, 1.0, 1.0, 3.0])
    f = lambda i, x: x - 1.0 - np.where(i == 3, 0.25, 0.0)
    _assert_brentq_bits(f, a, b)
    assert _brentq_rows(f, a, b).tolist() == [1.0, 1.0, 1.0, 1.25]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 0.5)],
                         ids=["mid_iteration", "at_an_end"])
def test_brent_pass_raises_on_nan_as_brentq_does(a, b):
    # the secant from the ends lands on 0.42, where f is NaN; in the
    # second bracket f(b) is NaN
    f = lambda i, x: np.where(np.abs(x - 0.42) < 0.09, np.nan, x - 0.42)
    if b == 0.5:
        f = lambda i, x: np.where(x == 0.5, np.nan, x - 0.42)
    with pytest.raises(ValueError, match="NaN"):
        brentq(_scalar(f, 0), a, b, xtol=_XTOL, rtol=_RTOL)
    # a good row in the same batch does not hide it
    with pytest.raises(ValueError, match="NaN"):
        _brentq_rows(f, np.array([a, 0.0]), np.array([b, 0.45]))


def test_brent_pass_refuses_one_sign_as_brentq_does():
    f = lambda i, x: x + 1.0
    with pytest.raises(ValueError, match="different signs"):
        brentq(_scalar(f, 0), 0.0, 1.0, xtol=_XTOL, rtol=_RTOL)
    with pytest.raises(ValueError, match="different signs"):
        _brentq_rows(f, np.array([-2.0, 0.0]), np.array([0.0, 1.0]))


# --- the quadrature ladder, its first two rungs in one pass ---

def _ladder_rows(law, V, h, fractions):
    """The rows of the _converged_integrals calls that radial_profile and
    radial_jacobian make at h and L at each fraction of the feasible
    interval, as (columns, step): the real rows batched together, and the
    complex-step rows.  None where no L is feasible or no profile is made."""
    try:
        lo, hi = _feasible_L_interval(law, V, h)
    except NoBoundOrbitError:
        return None
    calls = []
    ladder = orbit_module._converged_integrals

    def recorded(law, V, *cols, step=None):
        calls.append((cols, step))
        return ladder(law, V, *cols, step=step)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbit_module, "_converged_integrals", recorded)
        for t in fractions:
            try:
                radial_jacobian(law, V,
                                radial_profile(law, V, h, lo + t * (hi - lo)))
            except (NoBoundOrbitError, CircularDegenerateError,
                    QuadratureError):
                continue
    batches = {}
    for cols, step in calls:
        for batch, col in zip(batches.setdefault(step, ([], [], [], [])),
                              cols):
            batch.extend(col)
    return [(cols, step) for step, cols in batches.items()] or None


def _block(cols, step):
    """The columns as _converged_integrals hands them to _radial_integrals."""
    return np.array(cols, dtype=float if step is None else complex
                    )[:, :, None, None]


def _bits(values):
    return None if values is None else np.array(values).tobytes()


def _one_rung(law, V, rows, n):
    # the quadrature of one rung as it was written before rungs shared a
    # pass: the sums over the (rows, 2, n/2) arrays of that rung alone
    h, L, r_min, r_max = rows
    w, w_cos2, _, _ = _nodes((n,))
    r2, e, S = _integrand(law, V, h, r_min, r_max, (n,))
    nodes = (-2, -1)
    bad = np.any(S.real <= 0.0, axis=nodes).tolist()
    sqrtS = np.sqrt(S)
    half = 0.5 * (r_max - r_min)[:, 0, 0]
    return np.array([np.sum(w * (0.5 * law.p_squared_div(e, e)) / sqrtS,
                            axis=nodes),
                     np.sum(w * L / (r2 * sqrtS), axis=nodes),
                     half**2 * np.sum(w_cos2 * sqrtS, axis=nodes) / math.pi
                     ]).T.tolist(), bad


def _rung_at_a_time(law, V, h, L, r_min, r_max, step=None):
    # the ladder as it was written before rungs shared a pass: one rung
    # per pass, on the rows still on it
    rows = np.array([h, L, r_min, r_max],
                    dtype=float if step is None else complex)
    out = [None] * len(h)
    failed = {}
    todo, block, prev = list(range(len(h))), rows[:, :, None, None], None
    for n in _LADDER:
        cur, bad = _one_rung(law, V, block, n)
        if step is not None:
            cur = [[v.imag / step for v in row] for row in cur]
        keep = []
        for j, i in enumerate(todo):
            if bad[j]:
                failed[i] = "radial admissibility not positive at quadrature nodes"
            elif prev is not None and max(
                    abs(a - b) / (1.0 + abs(a))
                    for a, b in zip(cur[j], prev[j])) <= _LADDER_RTOL:
                out[i] = cur[j]
            else:
                keep.append(j)
        if not keep:
            return out, failed
        if len(keep) < len(todo):
            block = block[:, keep]
        todo, prev = [todo[j] for j in keep], [cur[j] for j in keep]
    for i in todo:
        failed[i] = (f"radial quadrature did not converge to "
                     f"{_LADDER_RTOL:g} at (h, L) = "
                     f"({h[i].real:g}, {L[i].real:g})")
    return out, failed


fraction_lists = st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(lvh=law_potential_h(), fractions=fraction_lists)
def test_first_two_rungs_in_one_pass_are_the_single_rung_passes(lvh,
                                                                fractions):
    law, V, _ = lvh
    batches = _ladder_rows(*lvh, fractions)
    assume(batches)
    for cols, step in batches:
        block = _block(cols, step)
        both = _radial_integrals(law, V, block, _LADDER[:2])
        assert len(both) == 2
        for n, (values, bad) in zip(_LADDER[:2], both):
            (alone, alone_bad), = _radial_integrals(law, V, block, (n,))
            ref, ref_bad = _one_rung(law, V, block, n)
            assert bad == alone_bad == ref_bad
            assert _bits(values) == _bits(alone) == _bits(ref)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(lvh=law_potential_h(), fractions=fraction_lists)
def test_ladder_is_the_one_rung_at_a_time_ladder(lvh, fractions):
    law, V, _ = lvh
    batches = _ladder_rows(*lvh, fractions)
    assume(batches)
    for cols, step in batches:
        out, failed = _converged_integrals(law, V, *cols, step=step)
        ref, ref_failed = _rung_at_a_time(law, V, *cols, step=step)
        assert failed == ref_failed
        assert list(map(_bits, out)) == list(map(_bits, ref))


# turning points of Kepler at (h, L) = (-0.375, 1) are 2/3 and 2; past 2
# the radial admissibility is negative, so a row with its ends at 4 and 6
# has an integrand that is not positive at the first rung
HOLLOW_ROW = (-0.375, 1.0, 4.0, 6.0)
HOLLOW = "radial admissibility not positive at quadrature nodes"


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_integrand_not_positive_at_the_first_rung_fails_the_row_as_before():
    (_, bad), _ = _radial_integrals(CLASSICAL, KEPLER,
                                    _block(list(zip(HOLLOW_ROW)), None),
                                    _LADDER[:2])
    assert bad == [True]
    # a hollow row after the first row of a profile's ladder and of its
    # complex steps
    for cols, step in _ladder_rows(CLASSICAL, KEPLER, -0.375, [0.5]):
        hollow = HOLLOW_ROW if step is None else (
            HOLLOW_ROW[0] + 1j * step, *HOLLOW_ROW[1:])
        cols = [[c[0], v, *c[1:]] for c, v in zip(cols, hollow)]
        out, failed = _converged_integrals(CLASSICAL, KEPLER, *cols, step=step)
        ref, ref_failed = _rung_at_a_time(CLASSICAL, KEPLER, *cols, step=step)
        assert failed == ref_failed == {1: HOLLOW}
        assert list(map(_bits, out)) == list(map(_bits, ref))
        assert None not in out[:1] + out[2:]


@pytest.mark.filterwarnings("ignore:invalid value encountered in sqrt")
def test_integrand_not_positive_raises_the_quadrature_error(monkeypatch):
    h, L, r_min, r_max = HOLLOW_ROW
    monkeypatch.setattr(orbit_module, "turning_points",
                        lambda *args: (r_min, r_max))
    with pytest.raises(QuadratureError) as exc:
        radial_profile(CLASSICAL, KEPLER, h, L)
    assert str(exc.value) == HOLLOW
    hollow = orbit_module.RadialProfile(h, L, r_min, r_max, 1.0, 1.0, 1.0)
    with pytest.raises(QuadratureError) as exc:
        radial_jacobian(CLASSICAL, KEPLER, hollow)
    assert str(exc.value) == HOLLOW


# --- the kinetic grid shared by the turning points at one energy ---

def test_kinetic_grid_cannot_be_changed():
    kin = _kin_on_scan(CLASSICAL, ALPHA_HALF, -1.5)
    with pytest.raises(ValueError, match="read-only"):
        kin[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        kin *= 2.0


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(lvh=law_potential_h())
def test_kinetic_grid_is_p_squared_on_the_scan(lvh):
    law, V, h = lvh
    assert (_kin_on_scan(law, V, h).tobytes()
            == law.p_squared(h + V.V(_SCAN)).tobytes())


def test_kinetic_grids_are_kept_apart():
    keys = [(CLASSICAL, ALPHA_HALF, -1.5), (CLASSICAL, ALPHA_HALF, -1.2),
            (CLASSICAL, ALPHA_HALF_TWIN, -1.5),
            (KineticLaw.relativistic(c=3.0), ALPHA_HALF, -1.5)]
    _kin_on_scan.cache_clear()
    grids = [_kin_on_scan(*key) for key in keys]
    assert _kin_on_scan.cache_info().misses == len(keys)
    for (law, V, h), grid in zip(keys, grids):
        assert grid.tobytes() == law.p_squared(h + V.V(_SCAN)).tobytes()
        assert _kin_on_scan(law, V, h) is grid


def test_a_root_search_forms_its_kinetic_grid_once():
    # the feasible interval, the scan and every turning_points call of the
    # root search run at h = -1.5
    _scan.cache_clear()
    _kin_on_scan.cache_clear()
    find_closed_orbit(CLASSICAL, ALPHA_HALF, 3, 4, -1.5)
    info = _kin_on_scan.cache_info()
    assert info.misses == 1 and info.hits > 1
