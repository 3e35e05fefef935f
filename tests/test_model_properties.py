"""Property tests of the model kernels and the short-time linearized flow
over random inputs (deterministic draws)."""
import math

import numpy as np
import pytest
from hypothesis import (assume, example, given, reject, settings,
                        strategies as st)
from scipy.spatial.transform import Rotation

from cforbits.errors import DegenerateMomentumError, DomainError
from cforbits.flow import integrate_with_variational, symplectic_matrix
from cforbits.model import (HamiltonianSystem, KineticLaw, Perturbation,
                            Potential, reversor)
from cforbits.orbit import reflect_apsis
from test_model import (energy_of_speed, family_field, momentum_of_speed,
                        vector_potential)

PROPERTY = settings(derandomize=True, deadline=None, database=None)

masses = st.floats(0.2, 5.0)
speeds_of_light = st.floats(0.5, 10.0)
laws = st.one_of(
    st.builds(KineticLaw.classical, m=masses),
    st.builds(KineticLaw.relativistic, m=masses, c=speeds_of_light),
)
potentials = st.sampled_from([
    Potential.homogeneous(1.0, 0.5),
    Potential.kepler(),
    Potential.harmonic(),
    Potential.levi_civita(1.0, 0.1),
])
coords = st.floats(-3.0, 3.0)
angles = st.floats(-math.pi, math.pi)
B0 = np.array([0.2, -0.4, 1.0])


def vectors(d, entries=coords):
    return st.lists(entries, min_size=d, max_size=d).map(np.array)


def block_rotation(R):
    d = R.shape[0]
    Q = np.zeros((2 * d, 2 * d))
    Q[:d, :d] = R
    Q[d:, d:] = R
    return Q


def assert_equivariant(sys, z, R):
    Q = block_rotation(R)
    v, H = sys.vector_field(0.3, z), sys.hessian(0.3, z)
    scale_v = 1.0 + np.max(np.abs(v))
    scale_H = 1.0 + np.max(np.abs(H))
    assert np.max(np.abs(sys.vector_field(0.3, Q @ z) - Q @ v)) <= 1e-12 * scale_v
    assert np.max(np.abs(sys.hessian(0.3, Q @ z) - Q @ H @ Q.T)) <= 1e-12 * scale_H


@settings(PROPERTY, max_examples=60)
@given(law=laws, V=potentials, x=vectors(2), p=vectors(2), theta=angles)
def test_planar_rotation_equivariance(law, V, x, p, theta):
    if np.linalg.norm(x) < 0.1 or np.linalg.norm(p) < 0.1:
        reject()
    sys = HamiltonianSystem(law, V, Perturbation.zero(), 2)
    c, s = math.cos(theta), math.sin(theta)
    assert_equivariant(sys, np.concatenate([x, p]), np.array([[c, -s], [s, c]]))


@settings(PROPERTY, max_examples=60)
@given(law=laws, V=potentials, x=vectors(3), p=vectors(3), theta=angles,
       eps=st.floats(-0.5, 0.5))
def test_magnetic_equivariance_about_the_field(law, V, x, p, theta, eps):
    # A = eps/2 B0 x x commutes with rotations that fix B0
    pert = Perturbation.uniform_magnetic(tuple(B0), eps)
    if (np.linalg.norm(x) < 0.1
            or np.linalg.norm(p - vector_potential(pert, x)) < 0.1):
        reject()
    sys = HamiltonianSystem(law, V, pert, 3)
    R = Rotation.from_rotvec(theta * B0 / np.linalg.norm(B0)).as_matrix()
    assert_equivariant(sys, np.concatenate([x, p]), R)


@settings(PROPERTY, max_examples=100)
@given(law=laws, frac=st.floats(1e-3, 0.999), q=st.floats(1e-3, 5.0))
def test_legendre_identity_and_round_trips(law, frac, q):
    # a speed inside the velocity domain (|v| < c for the relativistic law)
    # and a momentum up to 5 m c, past which f(f_inv(p)) loses digits to
    # the cancellation in 1 - v^2/c^2
    relativistic = law.kind == "relativistic"
    v = frac * (law.c if relativistic else 10.0)
    pmag = q * law.m * (law.c if relativistic else 1.0)
    assert float(law.f_inv(momentum_of_speed(law, v))) == pytest.approx(v, rel=1e-12)
    assert float(momentum_of_speed(law, law.f_inv(pmag))) == pytest.approx(pmag, rel=1e-12)
    e = float(law.G(pmag))
    assert float(np.sqrt(law.p_squared(e))) == pytest.approx(pmag, rel=1e-9)
    # G(s) = f_inv(s) s - F(f_inv(s)), the Legendre duality of G and F
    w = float(law.f_inv(pmag))
    assert e == pytest.approx(w * pmag - float(energy_of_speed(law, w)),
                              rel=1e-10, abs=1e-12 * (1.0 + pmag * w))


@settings(PROPERTY, max_examples=100)
@given(law=laws, log_q=st.floats(math.log(1e-6), math.log(5.0)))
@example(law=KineticLaw.relativistic(m=0.8, c=2.5), log_q=math.log(1e-6))
@example(law=KineticLaw.relativistic(m=0.8, c=2.5), log_q=math.log(1e-3))
def test_p_squared_inverts_G(law, log_q):
    # momenta from 1e-6 m c up, log-uniform: the relativistic G has no
    # sqrt(1 + q^2) - 1 to cancel at small q = p/(m c)
    q = math.exp(log_q)
    pmag = q * law.m * (law.c if law.kind == "relativistic" else 1.0)
    assert law.p_squared(float(law.G(pmag))) == pytest.approx(pmag**2, rel=1e-14)



@settings(PROPERTY, max_examples=100)
@given(law=laws, e1=st.floats(-5.0, 5.0), e2=st.floats(-5.0, 5.0))
def test_p_squared_div_is_the_divided_difference(law, e1, e2):
    assume(abs(e2 - e1) >= 0.1)
    quotient = (law.p_squared(e2) - law.p_squared(e1)) / (e2 - e1)
    assert law.p_squared_div(e1, e2) == pytest.approx(quotient, rel=1e-12)


# the divided difference V[a, b] of both kinds of potential: homogeneous
# with alpha away from 0 (where 1/alpha cancels in V) and Levi-Civita
divided_potentials = st.one_of(
    st.builds(Potential.homogeneous, st.floats(0.5, 2.0),
              st.floats(-3.0, 1.95).filter(lambda a: abs(a) >= 0.05)),
    st.builds(Potential.levi_civita, st.floats(0.5, 2.0), st.floats(0.01, 1.0)),
)


def scaled_divided_difference(V, a, b):
    """d/dl V[l a, l b] at l = 1 in closed form: V[a, b] is homogeneous of
    degree -alpha - 1, and its Levi-Civita terms of degrees -2 and -3."""
    if V.kind == "homogeneous":
        return -(V.params[1] + 1.0) * V.V_div(a, b)
    kappa, lam = V.params
    return 2.0 * kappa / (a * b) + 3.0 * lam * (a + b) / (a * b) ** 2


@settings(PROPERTY, max_examples=200)
@given(V=divided_potentials, a=st.floats(0.05, 20.0),
       ratio=st.floats(1.5, 20.0), log_gap=st.floats(math.log(1e-12),
                                                    math.log(1e-8)),
       below=st.booleans())
def test_V_div_is_the_divided_difference(V, a, ratio, log_gap, below):
    # apart: the direct quotient, which cancels little there
    b = a / ratio if below else a * ratio
    quotient = (V.V(b) - V.V(a)) / (b - a)
    assert V.V_div(a, b) == pytest.approx(quotient, rel=1e-12)
    # b -> a: the derivative, up to V'' times the gap
    b = a * (1.0 - math.exp(log_gap) if below else 1.0 + math.exp(log_gap))
    assert abs(V.V_div(a, b) - V.dV(a)) <= (
        1e-13 * abs(V.dV(a)) + 2.0 * abs(V.d2V(a) * (b - a)))
    # a complex step that scales both points, as the radial rows of
    # orbit.radial_jacobian move an end and a node together: its imaginary
    # part over the step is the derivative along the scaling, which on
    # NumPy's complex log1p would be off by up to 3.4e-5 relative
    step = 1e-30
    moved = V.V_div(a * (1.0 + 1j * step), b * (1.0 + 1j * step))
    want = scaled_divided_difference(V, a, b)
    assert abs(moved.imag / step - want) <= 1e-13 * (
        abs(want) + abs(V.V_div(a, b)))


systems = st.one_of(
    st.tuples(st.just(Perturbation.zero()), st.sampled_from([2, 3])),
    st.tuples(st.builds(Perturbation.uniform_magnetic, st.just(tuple(B0)),
                        st.floats(-0.2, 0.2)), st.just(3)),
    st.tuples(st.builds(Perturbation.rotating_frame, st.floats(-0.2, 0.2)),
              st.just(2)),
)


@settings(PROPERTY, max_examples=30)
@given(law=laws, V=potentials, pert_dim=systems, t1=st.floats(0.05, 1.0),
       data=st.data())
def test_short_time_fundamental_matrix_is_symplectic(law, V, pert_dim, t1, data):
    # |x| >= 1.5 and |p| <= 0.52: a free fall from rest at r = 1.5 needs
    # about 2 time units to reach the centre, so no draw comes near it
    pert, d = pert_dim
    x = data.draw(vectors(d))
    if not 1.5 <= np.linalg.norm(x) <= 3.0:
        reject()
    p = data.draw(vectors(d, st.floats(-0.3, 0.3)))
    if np.linalg.norm(p - vector_potential(pert, x)) < 1e-3:
        reject()  # the Hessian is undefined at p = A
    sys = HamiltonianSystem(law, V, pert, d)
    _, W = integrate_with_variational(sys, np.concatenate([x, p]), 0.0, t1)
    J = symplectic_matrix(d)
    assert np.max(np.abs(W.T @ J @ W - J)) <= 1e-10


def reference_vector_field(sys, t, z):
    """The vector field in NumPy array arithmetic, with the field built from
    the family's parameters: the reference path for the float kernel."""
    d = sys.dim
    x, p = z[:d], z[d:]
    DA, grad_U = family_field(sys.perturbation, t, d)
    r = np.linalg.norm(x)
    w = p - DA @ x
    s = np.linalg.norm(w)
    v = float(sys.law.f_inv(s)) * w / s if s > 0.0 else np.zeros(d)
    pdot = float(sys.potential.dV(r)) * x / r + DA.T @ v + grad_U
    return np.concatenate([v, pdot])


def reference_hessian(sys, t, z):
    """The Hessian in NumPy array arithmetic: [[DA^T K DA - Vb, -DA^T K],
    [-K DA, K]] with K = D^2 G(|w|), Vb = D^2 V(|x|) and DA built from the
    family's parameters."""
    d = sys.dim
    x, p = z[:d], z[d:]
    DA, _ = family_field(sys.perturbation, t, d)
    r = np.linalg.norm(x)
    w = p - DA @ x
    s = np.linalg.norm(w)
    eye = np.eye(d)
    uu = np.outer(w / s, w / s)
    g, gp = float(sys.law.f_inv(s)), float(sys.law.f_inv_prime(s))
    K = gp * uu + (g / s) * (eye - uu)
    xx = np.outer(x / r, x / r)
    Vp, Vpp = float(sys.potential.dV(r)), float(sys.potential.d2V(r))
    Vb = Vpp * xx + (Vp / r) * (eye - xx)
    AK = DA.T @ K
    return np.block([[AK @ DA - Vb, -AK], [-AK.T, K]])


def perturbed_systems(d):
    electric = st.builds(
        Perturbation.uniform_electric, vectors(d), st.floats(-0.5, 0.5),
        profile=st.sampled_from(["constant", "cosine"]),
        T_forcing=st.floats(0.5, 10.0))
    own = (st.builds(Perturbation.uniform_magnetic, vectors(3),
                     st.floats(-0.5, 0.5)) if d == 3 else
           st.builds(Perturbation.rotating_frame, st.floats(-0.5, 0.5)))
    return st.one_of(st.just(Perturbation.zero()), electric, own)


@settings(PROPERTY, max_examples=200)
@given(pert=st.one_of(
    st.builds(Perturbation.uniform_magnetic, vectors(3), st.floats(-0.5, 0.5)),
    st.builds(Perturbation.rotating_frame, st.floats(-0.5, 0.5))))
def test_DA_transpose_DA_is_bitwise_symmetric(pert):
    # the Hessian reads the upper triangle of DA^T DA and mirrors it, which
    # gives the matrix itself because the product comes out symmetric
    M = np.array(pert._DATDA).reshape(3, 3)
    assert np.array_equal(M.view(np.int64), M.T.view(np.int64))


@settings(PROPERTY, max_examples=200)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t=st.floats(0.0, 10.0), data=st.data())
def test_kernels_match_the_array_reference(law, V, d, t, data):
    # every kinetic law, potential kind, perturbation family and dimension
    pert = data.draw(perturbed_systems(d))
    x = data.draw(vectors(d))
    p = data.draw(vectors(d))
    if (np.linalg.norm(x) < 0.1
            or np.linalg.norm(p - vector_potential(pert, x)) < 0.1):
        reject()
    sys = HamiltonianSystem(law, V, pert, d)
    z = np.concatenate([x, p])
    ref = reference_vector_field(sys, t, z)
    assert np.max(np.abs(sys.vector_field(t, z) - ref)) <= 1e-13 * np.max(np.abs(ref))
    H, ref = sys.hessian(t, z), reference_hessian(sys, t, z)
    assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(H, H.T)


@settings(PROPERTY, max_examples=200)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t=st.floats(0.0, 10.0), data=st.data())
def test_vector_field_is_the_equation_of_motion(law, V, d, t, data):
    # the paper's equation of motion in w = p - A(x): dx/dt is the velocity
    # of momentum w, and dw/dt = V'(|x|) x/|x| + eps g(t) e + dx/dt x (eps B0),
    # with the scalar curl -eps of A = eps (x2, 0) for the rotating frame
    pert = data.draw(perturbed_systems(d))
    x = data.draw(vectors(d))
    p = data.draw(vectors(d))
    w = p - vector_potential(pert, x)
    r, s = np.linalg.norm(x), np.linalg.norm(w)
    if r < 0.1 or s < 0.1:
        reject()
    f = HamiltonianSystem(law, V, pert, d).vector_field(t, np.concatenate([x, p]))
    xdot, pdot = f[:d], f[d:]
    # A is linear and static, so dA(x)/dt = A(dx/dt)
    wdot = pdot - vector_potential(pert, xdot)
    force = float(V.dV(r)) * x / r
    if pert.family == "uniform_electric":
        g = (math.cos(2.0 * math.pi * t / pert.T_forcing)
             if pert.profile == "cosine" else 1.0)
        force = force + pert.eps * g * np.asarray(pert.e_vec)
    elif pert.family == "uniform_magnetic":
        force = force + np.cross(xdot, pert.eps * np.asarray(pert.B0))
    elif pert.family == "rotating_frame":
        b = -pert.eps  # dA2/dx1 - dA1/dx2
        force = force + b * np.array([xdot[1], -xdot[0]])
    speed = float(law.f_inv(s))
    assert np.max(np.abs(xdot - speed * w / s)) <= 1e-14 * speed
    scale = np.max(np.abs(force)) + np.max(np.abs(pdot))
    assert np.max(np.abs(wdot - force)) <= 1e-14 * scale


@settings(PROPERTY, max_examples=300)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t=st.floats(-10.0, 10.0), data=st.data())
def test_reversor_reverses_the_flow(law, V, d, t, data):
    # R_a = reflect_apsis(., reversor(pert)) maps solutions to solutions run
    # backwards, f(-t, R_a z) = -R_a f(t, z), and keeps H: for every family
    # and law, an electric direction with e3 != 0 and a tilted B included
    pert = data.draw(perturbed_systems(d))
    x = data.draw(vectors(d))
    p = data.draw(vectors(d))
    if (np.linalg.norm(x) < 0.1
            or np.linalg.norm(p - vector_potential(pert, x)) < 0.1):
        reject()
    sys = HamiltonianSystem(law, V, pert, d)
    a = reversor(pert)
    z = np.concatenate([x, p])
    Rz = reflect_apsis(z, a)
    f = sys.vector_field(t, z)
    back = sys.vector_field(-t, Rz) + reflect_apsis(f, a)
    assert np.max(np.abs(back)) <= 1e-14 * np.max(np.abs(f))
    H = sys.hamiltonian(t, z)
    assert abs(sys.hamiltonian(-t, Rz) - H) <= 1e-14 * max(1.0, abs(H))


# --- the kernels against the float kernels they replaced ---

def _g(pert, t):
    """The electric profile g(t) as the replaced kernels read it."""
    if pert.profile == "cosine":
        return math.cos(2.0 * math.pi * t / pert.T_forcing)
    return 1.0


def _unpack(sys, z, what):
    """x, w = p - A(t, x) and r = |x| > 0 as seven floats
    (x0, x1, x2, w0, w1, w2, r)."""
    z = np.asarray(z, dtype=float)
    if z.size != 2 * sys.dim:
        raise DomainError(f"state has size {z.size}, expected {2 * sys.dim}")
    if sys.dim == 2:
        x0, x1, p0, p1 = z.tolist()
        x2 = p2 = 0.0
    else:
        x0, x1, x2, p0, p1, p2 = z.tolist()
    r = math.hypot(x0, x1, x2)
    if r == 0.0:
        raise DomainError(f"{what} undefined at x = 0")
    if sys.perturbation._DA is not None:  # w = p - DA x
        a00, a01, a02, a10, a11, a12, a20, a21, a22 = sys.perturbation._DA
        p0 -= a00 * x0 + a01 * x1 + a02 * x2
        p1 -= a10 * x0 + a11 * x1 + a12 * x2
        p2 -= a20 * x0 + a21 * x1 + a22 * x2
    return x0, x1, x2, p0, p1, p2, r


def replaced_hamiltonian(sys, t, z):
    x0, x1, x2, w0, w1, w2, r = _unpack(sys, z, "Hamiltonian")
    H = sys.law.G(math.hypot(w0, w1, w2)) - sys.potential.V(r)
    pert = sys.perturbation
    if pert._e is not None:  # U = eps g(t) e.x
        e0, e1, e2 = pert._e
        H -= pert.eps * _g(pert, t) * (e0 * x0 + e1 * x1 + e2 * x2)
    return float(H)


def replaced_vector_field(sys, t, z):
    x0, x1, x2, w0, w1, w2, r = _unpack(sys, z, "vector field")
    s = math.hypot(w0, w1, w2)
    v0 = v1 = v2 = 0.0
    if s > 0.0:
        g = sys.law.f_inv(s)
        v0, v1, v2 = g * w0 / s, g * w1 / s, g * w2 / s
    c = sys.potential.dV(r)
    f0, f1, f2 = c * x0 / r, c * x1 / r, c * x2 / r
    pert = sys.perturbation
    if pert._DA is not None:  # + DA^T v
        a00, a01, a02, a10, a11, a12, a20, a21, a22 = pert._DA
        f0 += a00 * v0 + a10 * v1 + a20 * v2
        f1 += a01 * v0 + a11 * v1 + a21 * v2
        f2 += a02 * v0 + a12 * v1 + a22 * v2
    if pert._e is not None:  # + grad U
        c = pert.eps * _g(pert, t)
        e0, e1, e2 = pert._e
        f0, f1, f2 = f0 + c * e0, f1 + c * e1, f2 + c * e2
    if sys.dim == 2:
        return np.array([v0, v1, f0, f1])
    return np.array([v0, v1, v2, f0, f1, f2])


def replaced_hessian(sys, t, z):
    x0, x1, x2, w0, w1, w2, r = _unpack(sys, z, "Hessian")
    s = math.hypot(w0, w1, w2)
    if s == 0.0:
        raise DegenerateMomentumError("Hessian singular at p = A(t, x)")
    k0 = sys.law.f_inv(s) / s
    k1 = sys.law.f_inv_prime(s) - k0
    u0, u1, u2 = w0 / s, w1 / s, w2 / s
    K00, K11, K22 = k1 * (u0 * u0) + k0, k1 * (u1 * u1) + k0, k1 * (u2 * u2) + k0
    K01, K02, K12 = k1 * (u0 * u1), k1 * (u0 * u2), k1 * (u1 * u2)
    v0 = sys.potential.dV(r) / r
    v1 = sys.potential.d2V(r) - v0
    y0, y1, y2 = x0 / r, x1 / r, x2 / r
    X00, X11, X22 = -v1 * (y0 * y0) - v0, -v1 * (y1 * y1) - v0, -v1 * (y2 * y2) - v0
    X01, X02, X12 = -v1 * (y0 * y1), -v1 * (y0 * y2), -v1 * (y1 * y2)
    pert = sys.perturbation
    if pert._DA is None:
        C00 = C01 = C02 = C10 = C11 = C12 = C20 = C21 = C22 = 0.0
    else:
        a00, a01, a02, a10, a11, a12, a20, a21, a22 = pert._DA
        m00, m01, m02, _, m11, m12, _, _, m22 = pert._DATDA
        q0 = a00 * u0 + a10 * u1 + a20 * u2
        q1 = a01 * u0 + a11 * u1 + a21 * u2
        q2 = a02 * u0 + a12 * u1 + a22 * u2
        X00 += k0 * m00 + k1 * (q0 * q0)
        X11 += k0 * m11 + k1 * (q1 * q1)
        X22 += k0 * m22 + k1 * (q2 * q2)
        X01 += k0 * m01 + k1 * (q0 * q1)
        X02 += k0 * m02 + k1 * (q0 * q2)
        X12 += k0 * m12 + k1 * (q1 * q2)
        C00, C01, C02 = (-(k0 * a00 + k1 * (q0 * u0)), -(k0 * a10 + k1 * (q0 * u1)),
                         -(k0 * a20 + k1 * (q0 * u2)))
        C10, C11, C12 = (-(k0 * a01 + k1 * (q1 * u0)), -(k0 * a11 + k1 * (q1 * u1)),
                         -(k0 * a21 + k1 * (q1 * u2)))
        C20, C21, C22 = (-(k0 * a02 + k1 * (q2 * u0)), -(k0 * a12 + k1 * (q2 * u1)),
                         -(k0 * a22 + k1 * (q2 * u2)))
    if sys.dim == 2:
        return np.array([X00, X01, C00, C01,
                         X01, X11, C10, C11,
                         C00, C10, K00, K01,
                         C01, C11, K01, K11]).reshape(4, 4)
    return np.array([X00, X01, X02, C00, C01, C02,
                     X01, X11, X12, C10, C11, C12,
                     X02, X12, X22, C20, C21, C22,
                     C00, C10, C20, K00, K01, K02,
                     C01, C11, C21, K01, K11, K12,
                     C02, C12, C22, K02, K12, K22]).reshape(6, 6)


# a potential built from its own callables, V = 1/r + 0.05 r^2 e^-r with
# NumPy functions, so it takes a float or an array
def _custom_V(r):
    return 1.0 / r + 0.05 * r**2 * np.exp(-r)


def _custom_dV(r):
    return -1.0 / r**2 + 0.05 * (2.0 * r - r**2) * np.exp(-r)


def _custom_d2V(r):
    return 2.0 / r**3 + 0.05 * (2.0 - 4.0 * r + r**2) * np.exp(-r)


CUSTOM = Potential("custom", _custom_V, _custom_dV, _custom_d2V,
                   lambda a, b: (_custom_V(b) - _custom_V(a)) / (b - a))


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(PROPERTY, max_examples=200)
@given(law=laws, V=potentials, d=st.sampled_from([2, 3]),
       t=st.floats(0.0, 10.0), data=st.data())
def test_kernels_are_the_replaced_float_kernels_bit_for_bit(law, V, d, t, data):
    # the strategies of test_kernels_match_the_array_reference, each draw with
    # a custom potential too: the kernels' bound constants give the bits of
    # the method calls and attribute chains they replaced
    pert = data.draw(perturbed_systems(d))
    x = data.draw(vectors(d))
    p = data.draw(vectors(d))
    if (np.linalg.norm(x) < 0.1
            or np.linalg.norm(p - vector_potential(pert, x)) < 0.1):
        reject()
    z = np.concatenate([x, p])
    for potential in (V, CUSTOM):
        sys = HamiltonianSystem(law, potential, pert, d)
        assert _same_bits(sys.vector_field(t, z), replaced_vector_field(sys, t, z))
        assert _same_bits(sys.hessian(t, z), replaced_hessian(sys, t, z))
        assert _same_bits(sys.hamiltonian(t, z), replaced_hamiltonian(sys, t, z))
        # with_eps binds the new eps
        scaled = sys.with_eps(0.5 * pert.eps)
        assert _same_bits(scaled.vector_field(t, z),
                          replaced_vector_field(scaled, t, z))
