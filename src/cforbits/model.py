"""Kinetic laws, potentials, electromagnetic perturbations and the
perturbed/unperturbed Hamiltonian systems.

All evaluators are pure functions of their inputs; instances are immutable
after construction and safe to share across threads.  Phase states are flat
arrays ``z = [x, p]`` of length ``2 * dim``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    DegenerateMomentumError,
    DomainError,
    UnsupportedConfigurationError,
)

__all__ = [
    "KineticLaw",
    "Potential",
    "Perturbation",
    "HamiltonianSystem",
    "reversor",
]


# --- kinetic laws ---

@dataclass(frozen=True)
class KineticLaw:
    """Radial profile f of the momentum-velocity map p = f(|v|) v/|v|.

    Built-in kinds: ``classical`` (f(s) = m s) and ``relativistic``
    (f(s) = m s / sqrt(1 - s^2/c^2)).
    """

    kind: str
    m: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in ("classical", "relativistic"):
            raise ValueError(f"unknown kinetic law kind: {self.kind!r}")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.kind == "relativistic" and self.c <= 0:
            raise ValueError("light speed must be positive")

    @classmethod
    def classical(cls, m: float = 1.0) -> "KineticLaw":
        return cls("classical", m=m)

    @classmethod
    def relativistic(cls, m: float = 1.0, c: float = 1.0) -> "KineticLaw":
        return cls("relativistic", m=m, c=c)

    def f_inv(self, s):
        """Momentum magnitude -> speed (inverse of f).

        Takes a Python float or an array without converting it; a float
        stays a float (math.sqrt, not np.sqrt), so the per-step kernels of
        HamiltonianSystem make no NumPy call here.
        """
        if self.kind == "classical":
            return s / self.m
        q = s / (self.m * self.c)
        sqrt = math.sqrt if isinstance(s, float) else np.sqrt
        return s / (self.m * sqrt(1.0 + q * q))

    def f_inv_prime(self, s):
        """Derivative of f_inv; a float or an array as for f_inv (the
        constant 1/m for the classical law)."""
        if self.kind == "classical":
            return 1.0 / self.m
        q = s / (self.m * self.c)
        return 1.0 / (self.m * (1.0 + q * q) ** 1.5)

    def G(self, s):
        """Kinetic energy as a function of momentum magnitude (Legendre dual of
        the kinetic energy as a function of speed).  The relativistic
        m c^2 (sqrt(1 + q^2) - 1), q = s/(m c), is written as
        m c^2 q^2 / (sqrt(1 + q^2) + 1), which does not cancel at small q."""
        s = np.asarray(s, dtype=float)
        if self.kind == "classical":
            return s**2 / (2.0 * self.m)
        q2 = (s / (self.m * self.c)) ** 2
        return self.m * self.c**2 * q2 / (np.sqrt(1.0 + q2) + 1.0)

    def p_squared(self, e):
        """Squared momentum magnitude G^{-1}(e)^2 at kinetic energy e: the
        polynomial 2 m e (+ (e/c)^2 for the relativistic law), so it
        extends to e < 0.  Takes a float or an array without converting it
        and squares q = e/c as q * q, one IEEE product on either."""
        p2 = 2.0 * self.m * e
        if self.kind == "relativistic":
            q = e / self.c
            p2 = p2 + q * q
        return p2

    def p_squared_div(self, e1, e2):
        """Divided difference of p_squared between the energies e1 and e2,
        exactly 2 m (+ (e1 + e2)/c^2 for the relativistic law)."""
        d = 2.0 * self.m
        if self.kind == "relativistic":
            d = d + (e1 + e2) / self.c**2
        return d


# --- potentials ---

def _expm1_ratio(s, x):
    """((1 + x)^s - 1)/x without cancellation at small x.  On complex x
    (a complex step) log(1 + x) is log1p(x.real) + i x.imag/(1 + x.real),
    its first order in x.imag: NumPy's complex log1p loses the real part
    for small x (8.9e-5 relative at x = 1e-12)."""
    log1p = (np.log1p(x.real) + 1j * (x.imag / (1.0 + x.real))
             if np.iscomplexobj(x) else np.log1p(x))
    return np.expm1(s * log1p) / x


@dataclass(frozen=True)
class Potential:
    """Radial potential V(r) with first and second derivatives on r > 0.

    The Hamiltonian carries the potential with a minus sign,
    H = G(|p|) - V(|x|), so an attractive force corresponds to V' < 0.
    ``V``, ``dV`` and ``d2V`` are the callables themselves: each takes a
    float or an array of radii and computes on it as given.  ``V_div(a, b)``
    is (V(b) - V(a))/(b - a) on real or complex radii, with nothing to
    cancel as b nears a; the radial quadrature reads it, so a custom
    potential must supply it too.
    """

    kind: str
    V: Callable
    dV: Callable
    d2V: Callable
    V_div: Callable
    params: tuple = ()

    @classmethod
    def homogeneous(cls, kappa: float = 1.0, alpha: float = 1.0) -> "Potential":
        """V(r) = kappa / (alpha r^alpha), kappa > 0, alpha < 2, alpha != 0."""
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        if alpha >= 2 or alpha == 0:
            raise ValueError("homogeneous potential requires alpha < 2, alpha != 0")
        return cls(
            "homogeneous",
            lambda r: kappa / alpha * r**-alpha,
            lambda r: -kappa * r ** (-alpha - 1),
            lambda r: kappa * (alpha + 1) * r ** (-alpha - 2),
            # V[a, b] = (kappa/alpha) a^(-alpha-1) ((b/a)^-alpha - 1)/x with
            # x = (b - a)/a and (b/a)^-alpha - 1 = expm1(-alpha log1p(x))
            lambda a, b: kappa / alpha * a**(-alpha - 1.0) * _expm1_ratio(
                -alpha, (b - a) / a),
            params=(kappa, alpha),
        )

    @classmethod
    def kepler(cls, kappa: float = 1.0) -> "Potential":
        return cls.homogeneous(kappa=kappa, alpha=1.0)

    @classmethod
    def harmonic(cls, kappa: float = 1.0) -> "Potential":
        return cls.homogeneous(kappa=kappa, alpha=-2.0)

    @classmethod
    def levi_civita(cls, kappa: float = 1.0, lam: float = 1.0) -> "Potential":
        """V(r) = kappa/r + lam/r^2, the classical correction of the Kepler problem."""
        if kappa <= 0 or lam <= 0:
            raise ValueError("kappa and lam must be positive")
        return cls(
            "levi_civita",
            lambda r: kappa / r + lam / r**2,
            lambda r: -kappa / r**2 - 2.0 * lam / r**3,
            lambda r: 2.0 * kappa / r**3 + 6.0 * lam / r**4,
            lambda a, b: -kappa / (a * b) - lam * (a + b) / (a * b) ** 2,
            params=(kappa, lam),
        )


# --- perturbations ---

def _skew(b):
    return np.array(
        [[0.0, -b[2], b[1]], [b[2], 0.0, -b[0]], [-b[1], b[0], 0.0]]
    )


@dataclass(frozen=True)
class Perturbation:
    """Closed catalogue of electromagnetic perturbation families.

    The fields include the size ``eps`` and vanish at eps = 0.  Every
    built-in scalar potential U = eps g(t) e.x and vector potential A = DA x
    is linear in x, so its second x-derivatives vanish, and A does not
    depend on t.  ``__post_init__`` is the one place that maps a family to
    its fields: it builds the constant x-derivatives once per instance as
    Python floats, padded to three dimensions with zeros so that the
    kernels of :class:`HamiltonianSystem` read them without a NumPy call:
    ``_DA`` (the 3 x 3 matrix DA, row by row) and ``_DATDA`` (DA^T DA, in
    the same layout, whose upper triangle the Hessian reads and mirrors),
    both None for families without a vector potential, and ``_e`` (the
    electric direction, None for families without an electric field).
    Those kernels read the fields from these, ``eps`` and ``_g`` alone.
    """

    family: str = "zero"
    eps: float = 0.0
    e_vec: tuple = ()
    profile: str = "constant"  # time profile of the electric potential
    T_forcing: float = math.inf
    B0: tuple = ()
    _DA: tuple | None = field(default=None, init=False, repr=False,
                              compare=False)
    _DATDA: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)
    _e: tuple | None = field(default=None, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        DA = None
        if self.family == "uniform_magnetic":
            if len(self.B0) != 3:
                raise ValueError(f"B0 needs 3 components, not {len(self.B0)}")
            DA = 0.5 * self.eps * _skew(np.asarray(self.B0, dtype=float))
        elif self.family == "rotating_frame":
            DA = np.zeros((3, 3))
            DA[0, 1] = self.eps
        elif self.family == "uniform_electric":
            if len(self.e_vec) not in (2, 3):
                raise ValueError("e_vec needs 2 or 3 components, not "
                                 f"{len(self.e_vec)}")
            e = tuple(map(float, self.e_vec))
            object.__setattr__(self, "_e", e + (0.0,) * (3 - len(e)))
        if DA is not None:
            object.__setattr__(self, "_DA", tuple(DA.ravel().tolist()))
            object.__setattr__(self, "_DATDA",
                               tuple((DA.T @ DA).ravel().tolist()))

    @classmethod
    def zero(cls) -> "Perturbation":
        return cls()

    @classmethod
    def uniform_electric(cls, e_vec, eps: float, profile: str = "constant",
                         T_forcing: float = math.inf) -> "Perturbation":
        if profile not in ("constant", "cosine"):
            raise ValueError(f"unknown time profile: {profile!r}")
        if profile == "cosine" and not (T_forcing > 0 and math.isfinite(T_forcing)):
            raise ValueError("cosine profile needs a finite positive T_forcing")
        return cls("uniform_electric", eps=eps, e_vec=tuple(e_vec),
                   profile=profile, T_forcing=T_forcing)

    @classmethod
    def uniform_magnetic(cls, B0, eps: float) -> "Perturbation":
        return cls("uniform_magnetic", eps=eps, B0=tuple(B0))

    @classmethod
    def rotating_frame(cls, eps: float) -> "Perturbation":
        """A = (eps x2, 0): the planar uniform magnetic field B = -eps z in
        Landau gauge, not a rotating frame.  For the classical law in
        symmetric gauge, H = G - V - omega L + eps^2 r^2/8m with the Larmor
        rate omega = -eps/2m: the frame turning at omega,
        H = G - V - omega L, plus eps^2 r^2/8m."""
        return cls("rotating_frame", eps=eps)

    @property
    def is_autonomous(self) -> bool:
        return not (self.family == "uniform_electric" and self.profile == "cosine")

    @property
    def dim(self) -> int | None:
        """The dimension the field fixes; None for the zero field, which
        fits both."""
        if self.family == "uniform_electric":
            return len(self.e_vec)
        return {"rotating_frame": 2, "uniform_magnetic": 3}.get(self.family)

    def check_dim(self, dim: int):
        if self.dim not in (None, dim):
            raise UnsupportedConfigurationError(
                f"{self.family} fixes dim = {self.dim}, system dim is {dim}")

    def _g(self, t: float) -> float:
        if self.profile == "cosine":
            return math.cos(2.0 * math.pi * t / self.T_forcing)
        return 1.0


def reversor(perturbation: Perturbation) -> float:
    """Angle a of an apsis line whose time reversal
    R_a = ``orbit.reflect_apsis(., a)`` is a reversor of every system with
    this perturbation: H(-t, R_a z) = H(t, z) and
    f(-t, R_a z) = -R_a f(t, z).  R_a flips x2, p1 and p3 in the frame
    turned by a, so it needs a field that reflection fixes there: the
    electric direction (the cosine profile is even in t) and the magnetic
    axis lie in the plane of the apsis line and x3, and the Landau gauge of
    ``rotating_frame`` is symmetric about the x1 axis alone."""
    if perturbation.family == "uniform_electric":
        return math.atan2(perturbation.e_vec[1], perturbation.e_vec[0])
    if perturbation.family == "uniform_magnetic":
        # any a when B is along x3: the field is symmetric about its axis
        return math.atan2(perturbation.B0[1], perturbation.B0[0])
    return 0.0  # rotating_frame, and the zero field


# --- the Hamiltonian system ---

@dataclass(frozen=True)
class HamiltonianSystem:
    """Central force problem H = G(|p - A(t,x)|) - V(|x|) - U(t,x) in dim 2 or 3.

    The kernels unpack z once into Python floats (``_unpack``) and compute
    on them with ``math``, written out in three dimensions (a planar state
    has x2 = p2 = 0): at d = 2 or 3, NumPy's per-call cost on such small
    arrays outweighs the arithmetic.  ``__post_init__`` binds what they read
    once per system, as private attributes, so a call follows no attribute
    chain for it: the law's ``G``, ``f_inv`` and ``f_inv_prime``, the
    potential's own ``V``, ``dV`` and ``d2V``, and the perturbation's DA,
    DA^T DA, e, eps and profile g(t).  The binding is kept for speed: a
    planar relativistic ``vector_field`` call takes 1.56-1.64 us with it
    and 1.73-1.80 us without it (timeit, 20,000 calls, 2-core Xeon).
    """

    law: KineticLaw
    potential: Potential
    perturbation: Perturbation = Perturbation.zero()
    dim: int = 2

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.perturbation.check_dim(self.dim)
        law, V, pert = self.law, self.potential, self.perturbation
        for name, value in (
                ("_planar", self.dim == 2), ("_G", law.G), ("_f_inv", law.f_inv),
                ("_f_inv_prime", law.f_inv_prime), ("_V", V.V), ("_dV", V.dV),
                ("_d2V", V.d2V), ("_DA", pert._DA), ("_DATDA", pert._DATDA),
                ("_e", pert._e), ("_eps", pert.eps), ("_g", pert._g)):
            object.__setattr__(self, name, value)

    def with_eps(self, eps: float) -> "HamiltonianSystem":
        return replace(self, perturbation=replace(self.perturbation, eps=eps))

    def _unpack(self, z, what):
        """x, w = p - A(t, x) and r = |x| > 0 as seven floats
        (x0, x1, x2, w0, w1, w2, r)."""
        z = np.asarray(z, dtype=float)
        if z.size != 2 * self.dim:
            raise DomainError(f"state has size {z.size}, expected {2 * self.dim}")
        if self._planar:
            x0, x1, p0, p1 = z.tolist()
            x2 = p2 = 0.0
        else:
            x0, x1, x2, p0, p1, p2 = z.tolist()
        r = math.hypot(x0, x1, x2)
        if r == 0.0:
            raise DomainError(f"{what} undefined at x = 0")
        if self._DA is not None:  # w = p - DA x
            a00, a01, a02, a10, a11, a12, a20, a21, a22 = self._DA
            p0 -= a00 * x0 + a01 * x1 + a02 * x2
            p1 -= a10 * x0 + a11 * x1 + a12 * x2
            p2 -= a20 * x0 + a21 * x1 + a22 * x2
        return x0, x1, x2, p0, p1, p2, r

    def hamiltonian(self, t: float, z) -> float:
        x0, x1, x2, w0, w1, w2, r = self._unpack(z, "Hamiltonian")
        H = self._G(math.hypot(w0, w1, w2)) - self._V(r)
        if self._e is not None:  # U = eps g(t) e.x
            e0, e1, e2 = self._e
            H -= self._eps * self._g(t) * (e0 * x0 + e1 * x1 + e2 * x2)
        return float(H)

    def vector_field(self, t: float, z, sundman: bool = False):
        """Canonical phase velocity (dx/dt, dp/dt) = (grad_p H, -grad_x H).

        With ``sundman``, the field (dz/ds, dt/ds) = (|x| f(t, z), |x|) of
        the same flow in the time s of dt/ds = |x| (Sundman's
        transformation), 2d + 1 components, each product formed on the
        floats of the plain field.  One body serves both, so the plain
        field pays one test of the flag and no call more.
        """
        x0, x1, x2, w0, w1, w2, r = self._unpack(z, "vector field")
        s = math.hypot(w0, w1, w2)
        v0 = v1 = v2 = 0.0
        if s > 0.0:
            g = self._f_inv(s)
            v0, v1, v2 = g * w0 / s, g * w1 / s, g * w2 / s
        c = self._dV(r)
        f0, f1, f2 = c * x0 / r, c * x1 / r, c * x2 / r
        if self._DA is not None:  # + DA^T v
            a00, a01, a02, a10, a11, a12, a20, a21, a22 = self._DA
            f0 += a00 * v0 + a10 * v1 + a20 * v2
            f1 += a01 * v0 + a11 * v1 + a21 * v2
            f2 += a02 * v0 + a12 * v1 + a22 * v2
        if self._e is not None:  # + grad U
            c = self._eps * self._g(t)
            e0, e1, e2 = self._e
            f0, f1, f2 = f0 + c * e0, f1 + c * e1, f2 + c * e2
        if sundman:
            if self._planar:
                return np.array([r * v0, r * v1, r * f0, r * f1, r])
            return np.array([r * v0, r * v1, r * v2, r * f0, r * f1, r * f2,
                             r])
        if self._planar:
            return np.array([v0, v1, f0, f1])
        return np.array([v0, v1, v2, f0, f1, f2])

    def hessian(self, t: float, z):
        """Symmetric (2d x 2d) matrix of second z-derivatives of H."""
        x0, x1, x2, w0, w1, w2, r = self._unpack(z, "Hessian")
        s = math.hypot(w0, w1, w2)
        if s == 0.0:
            raise DegenerateMomentumError("Hessian singular at p = A(t, x)")
        # D^2 G(|w|) = k0 I + k1 u u^T with u = w/s, k0 = g/s, k1 = g' - g/s;
        # D^2 V(|x|) = v0 I + v1 y y^T with y = x/r, v0 = V'/r, v1 = V'' - V'/r.
        # The built-in U and A families are linear in x, so D^2 U and D^2 A
        # vanish: Hpp = K, Hxp = -DA^T K and Hxx = DA^T K DA - D^2 V, where
        # with q = DA^T u, DA^T K = k0 DA^T + k1 q u^T and
        # DA^T K DA = k0 DA^T DA + k1 q q^T.  Each entry below i <= j is
        # formed once and mirrored, so H is exactly symmetric.
        k0 = self._f_inv(s) / s
        k1 = self._f_inv_prime(s) - k0
        u0, u1, u2 = w0 / s, w1 / s, w2 / s
        K00, K11, K22 = k1 * (u0 * u0) + k0, k1 * (u1 * u1) + k0, k1 * (u2 * u2) + k0
        K01, K02, K12 = k1 * (u0 * u1), k1 * (u0 * u2), k1 * (u1 * u2)
        v0 = self._dV(r) / r
        v1 = self._d2V(r) - v0
        y0, y1, y2 = x0 / r, x1 / r, x2 / r
        X00, X11, X22 = -v1 * (y0 * y0) - v0, -v1 * (y1 * y1) - v0, -v1 * (y2 * y2) - v0
        X01, X02, X12 = -v1 * (y0 * y1), -v1 * (y0 * y2), -v1 * (y1 * y2)
        if self._DA is None:
            C00 = C01 = C02 = C10 = C11 = C12 = C20 = C21 = C22 = 0.0
        else:
            a00, a01, a02, a10, a11, a12, a20, a21, a22 = self._DA
            m00, m01, m02, _, m11, m12, _, _, m22 = self._DATDA
            q0 = a00 * u0 + a10 * u1 + a20 * u2
            q1 = a01 * u0 + a11 * u1 + a21 * u2
            q2 = a02 * u0 + a12 * u1 + a22 * u2
            X00 += k0 * m00 + k1 * (q0 * q0)
            X11 += k0 * m11 + k1 * (q1 * q1)
            X22 += k0 * m22 + k1 * (q2 * q2)
            X01 += k0 * m01 + k1 * (q0 * q1)
            X02 += k0 * m02 + k1 * (q0 * q2)
            X12 += k0 * m12 + k1 * (q1 * q2)
            # C = Hxp = -(DA^T K), C_ij = -(k0 DA_ji + k1 q_i u_j)
            C00, C01, C02 = (-(k0 * a00 + k1 * (q0 * u0)), -(k0 * a10 + k1 * (q0 * u1)),
                             -(k0 * a20 + k1 * (q0 * u2)))
            C10, C11, C12 = (-(k0 * a01 + k1 * (q1 * u0)), -(k0 * a11 + k1 * (q1 * u1)),
                             -(k0 * a21 + k1 * (q1 * u2)))
            C20, C21, C22 = (-(k0 * a02 + k1 * (q2 * u0)), -(k0 * a12 + k1 * (q2 * u1)),
                             -(k0 * a22 + k1 * (q2 * u2)))
        if self._planar:
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
