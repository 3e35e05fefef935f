"""Kinetic laws, potentials, electromagnetic perturbations and the
perturbed/unperturbed Hamiltonian systems.

All evaluators are pure functions of their inputs; instances are immutable
after construction and safe to share across threads.  Phase states are flat
arrays ``z = [x, p]`` of length ``2 * dim``; the :class:`PhaseState` helper
is provided for convenience.
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
    "PhaseState",
    "eval_fields",
]


# --- kinetic laws ---

@dataclass(frozen=True)
class KineticLaw:
    """Radial profile f of the momentum-velocity map p = f(|v|) v/|v|.

    Built-in kinds: ``classical`` (f(s) = m s) and ``relativistic``
    (f(s) = m s / sqrt(1 - s^2/c^2)).  ``a`` is the velocity-domain radius
    (c in the relativistic case, +inf otherwise).
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

    @property
    def a(self) -> float:
        return self.c if self.kind == "relativistic" else math.inf

    def f(self, s):
        """Speed -> momentum magnitude."""
        s = np.asarray(s, dtype=float)
        if self.kind == "classical":
            return self.m * s
        return self.m * s / np.sqrt(1.0 - (s / self.c) ** 2)

    def f_prime(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "classical":
            return np.full_like(s, self.m)
        return self.m * (1.0 - (s / self.c) ** 2) ** -1.5

    def f_inv(self, s):
        """Momentum magnitude -> speed (inverse of f).

        Takes a Python float or an array without converting it, so the
        per-step kernels of HamiltonianSystem stay on floats.
        """
        if self.kind == "classical":
            return s / self.m
        q = s / (self.m * self.c)
        return s / (self.m * np.sqrt(1.0 + q * q))

    def f_inv_prime(self, s):
        """Derivative of f_inv; a float or an array as for f_inv (the
        constant 1/m for the classical law)."""
        if self.kind == "classical":
            return 1.0 / self.m
        q = s / (self.m * self.c)
        return 1.0 / (self.m * (1.0 + q * q) ** 1.5)

    def F(self, s):
        """Kinetic energy as a function of speed."""
        s = np.asarray(s, dtype=float)
        if self.kind == "classical":
            return 0.5 * self.m * s**2
        return self.m * self.c**2 * (1.0 - np.sqrt(1.0 - (s / self.c) ** 2))

    def G(self, s):
        """Kinetic energy as a function of momentum magnitude (Legendre dual of F)."""
        s = np.asarray(s, dtype=float)
        if self.kind == "classical":
            return s**2 / (2.0 * self.m)
        mc = self.m * self.c
        return self.m * self.c**2 * (np.sqrt(1.0 + (s / mc) ** 2) - 1.0)

    def G_prime(self, s):
        return self.f_inv(s)

    def G_inv(self, e):
        """Momentum magnitude at kinetic energy e >= 0."""
        e = np.asarray(e, dtype=float)
        if self.kind == "classical":
            return np.sqrt(2.0 * self.m * e)
        return np.sqrt(2.0 * self.m * e + (e / self.c) ** 2)


# --- potentials ---

@dataclass(frozen=True)
class Potential:
    """Radial potential V(r) with first and second derivatives on r > 0.

    The Hamiltonian carries the potential with a minus sign,
    H = G(|p|) - V(|x|), so an attractive force corresponds to V' < 0.
    """

    kind: str
    _V: Callable
    _dV: Callable
    _d2V: Callable
    params: tuple = ()

    def V(self, r):
        return self._V(np.asarray(r, dtype=float))

    def dV(self, r):
        return self._dV(np.asarray(r, dtype=float))

    def d2V(self, r):
        return self._d2V(np.asarray(r, dtype=float))

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
            params=(kappa, lam),
        )


# --- perturbations ---

def _frozen(a):
    a.setflags(write=False)
    return a


def _skew(b):
    return np.array(
        [[0.0, -b[2], b[1]], [b[2], 0.0, -b[0]], [-b[1], b[0], 0.0]]
    )


@dataclass(frozen=True)
class Perturbation:
    """Closed catalogue of electromagnetic perturbation families.

    Evaluators include the size ``eps``; ``U`` and ``A`` vanish identically at
    eps = 0.  All built-in scalar and vector potentials are linear in x, so
    their second x-derivatives vanish, and the vector potentials do not
    depend on t.  ``__post_init__`` is the one place that maps a family to
    its fields: it builds the constant x-derivatives once per instance,
    ``_DA`` (read-only, None for families without a vector potential) and
    ``_e`` (the electric direction, None for families without an electric
    field), and every evaluator below keys off these two.
    """

    family: str = "zero"
    eps: float = 0.0
    e_vec: tuple = ()
    profile: str = "constant"  # time profile of the electric potential
    T_forcing: float = math.inf
    B0: tuple = ()
    _DA: np.ndarray | None = field(default=None, init=False, repr=False,
                                   compare=False)
    _e: np.ndarray | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        DA = e = None
        if self.family == "uniform_magnetic":
            DA = 0.5 * self.eps * _skew(np.asarray(self.B0, dtype=float))
        elif self.family == "rotating_frame":
            DA = self.eps * np.array([[0.0, 1.0], [0.0, 0.0]])
        elif self.family == "uniform_electric":
            e = np.asarray(self.e_vec, dtype=float)
        object.__setattr__(self, "_DA", None if DA is None else _frozen(DA))
        object.__setattr__(self, "_e", None if e is None else _frozen(e))

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
        return cls("rotating_frame", eps=eps)

    @property
    def is_autonomous(self) -> bool:
        return not (self.family == "uniform_electric" and self.profile == "cosine")

    def scaled(self, eps: float) -> "Perturbation":
        """Same family with a different perturbation size."""
        return replace(self, eps=eps)

    def check_dim(self, dim: int):
        if self.family == "rotating_frame" and dim != 2:
            raise UnsupportedConfigurationError("rotating_frame is 2D only")
        if self.family == "uniform_magnetic" and dim != 3:
            raise UnsupportedConfigurationError("uniform_magnetic needs dim = 3")
        if self.family == "uniform_electric" and len(self.e_vec) != dim:
            raise UnsupportedConfigurationError(
                f"electric vector has length {len(self.e_vec)}, system dim is {dim}"
            )

    def _g(self, t: float) -> float:
        if self.profile == "cosine":
            return math.cos(2.0 * math.pi * t / self.T_forcing)
        return 1.0

    # scalar potential and derivatives

    def U(self, t: float, x) -> float:
        if self._e is None:
            return 0.0
        return self.eps * self._g(t) * float(np.dot(self._e, x))

    def grad_U(self, t: float, x):
        if self._e is None:
            return np.zeros(len(x))
        return self.eps * self._g(t) * self._e

    # vector potential and derivatives; the built-in ones are linear, A = DA x

    def A(self, t: float, x):
        DA = self._DA
        if DA is None:
            return np.zeros(len(x))
        if self.family == "uniform_magnetic":
            # eps/2 B0 x x written out in np.cross's operation order, which
            # DA @ x does not keep
            b0, b1, b2 = self.B0
            x0, x1, x2 = np.asarray(x, dtype=float).tolist()
            c = 0.5 * self.eps
            return np.array([c * (b1 * x2 - b2 * x1), c * (b2 * x0 - b0 * x2),
                             c * (b0 * x1 - b1 * x0)])
        return DA @ np.asarray(x, dtype=float)

    def DA(self, t: float, x):
        if self._DA is None:
            d = len(x)
            return np.zeros((d, d))
        return self._DA


def eval_fields(pert: Perturbation, t: float, x):
    """Electric and magnetic fields at (t, x).

    E = grad_x U - dA/dt; B = curl_x A (a vector for dim 3, the scalar curl
    for dim 2).  The built-in vector potentials do not depend on t, so
    E = grad_x U.
    """
    x = np.asarray(x, dtype=float)
    d = len(x)
    pert.check_dim(d)
    if np.linalg.norm(x) == 0.0:
        raise DomainError("fields undefined at x = 0")
    E = pert.grad_U(t, x)
    DA = pert.DA(t, x)
    if d == 3:
        B = np.array([DA[2, 1] - DA[1, 2], DA[0, 2] - DA[2, 0], DA[1, 0] - DA[0, 1]])
    else:
        B = DA[1, 0] - DA[0, 1]
    return E, B


# --- phase states and the Hamiltonian system ---

@dataclass(frozen=True)
class PhaseState:
    """Position/momentum pair; ``z`` is the flat [x, p] layout used everywhere."""

    x: tuple
    p: tuple

    @classmethod
    def from_z(cls, z) -> "PhaseState":
        z = np.asarray(z, dtype=float)
        d = z.size // 2
        return cls(tuple(z[:d]), tuple(z[d:]))

    @property
    def z(self):
        return np.concatenate([self.x, self.p])


_EYE = {d: _frozen(np.eye(d)) for d in (2, 3)}


def _as_z(z):
    if isinstance(z, PhaseState):
        return z.z
    return np.asarray(z, dtype=float)


@dataclass(frozen=True)
class HamiltonianSystem:
    """Central force problem H = G(|p - A(t,x)|) - V(|x|) - U(t,x) in dim 2 or 3."""

    law: KineticLaw
    potential: Potential
    perturbation: Perturbation = Perturbation.zero()
    dim: int = 2

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.perturbation.family != "zero":
            self.perturbation.check_dim(self.dim)

    def with_eps(self, eps: float) -> "HamiltonianSystem":
        return replace(self, perturbation=self.perturbation.scaled(eps))

    @property
    def is_autonomous(self) -> bool:
        return self.perturbation.is_autonomous

    def _split(self, z):
        z = _as_z(z)
        if z.size != 2 * self.dim:
            raise DomainError(f"state has size {z.size}, expected {2 * self.dim}")
        return z[: self.dim], z[self.dim:]

    def hamiltonian(self, t: float, z) -> float:
        x, p = self._split(z)
        r = np.linalg.norm(x)
        if r == 0.0:
            raise DomainError("Hamiltonian undefined at x = 0")
        w = p - self.perturbation.A(t, x)
        s = np.linalg.norm(w)
        return float(self.law.G(s) - self.potential.V(r)
                     - self.perturbation.U(t, x))

    def vector_field(self, t: float, z):
        """Canonical phase velocity (dx/dt, dp/dt) = (grad_p H, -grad_x H)."""
        x, p = self._split(z)
        r = math.sqrt(x @ x)
        if r == 0.0:
            raise DomainError("vector field undefined at x = 0")
        pert = self.perturbation
        DA = pert._DA
        w = p if DA is None else p - pert.A(t, x)
        s = math.sqrt(w @ w)
        v = self.law.f_inv(s) * w / s if s > 0.0 else np.zeros(self.dim)
        pdot = float(self.potential._dV(r)) * x / r
        if DA is not None:
            pdot += DA.T @ v
        if pert._e is not None:
            pdot += pert.grad_U(t, x)
        return np.concatenate([v, pdot])

    def hessian(self, t: float, z):
        """Symmetric (2d x 2d) matrix of second z-derivatives of H."""
        x, p = self._split(z)
        d = self.dim
        r = math.sqrt(x @ x)
        if r == 0.0:
            raise DomainError("Hessian undefined at x = 0")
        pert = self.perturbation
        DA = pert._DA
        w = p if DA is None else p - pert.A(t, x)
        s = math.sqrt(w @ w)
        if s == 0.0:
            raise DegenerateMomentumError("Hessian singular at p = A(t, x)")
        u = w / s
        uu = u[:, None] * u
        eye = _EYE[d]
        g = self.law.f_inv(s)
        gp = self.law.f_inv_prime(s)
        Kww = gp * uu + (g / s) * (eye - uu)

        ux = x / r
        uxux = ux[:, None] * ux
        Vpp = float(self.potential._d2V(r))
        Vp = float(self.potential._dV(r))
        Vblock = Vpp * uxux + (Vp / r) * (eye - uxux)

        # built-in U and A families are linear in x, so the D^2 U and D^2 A
        # terms vanish, and without A: Hxx = -Vblock, Hxp = 0, Hpp = Kww
        H = np.zeros((2 * d, 2 * d))
        H[d:, d:] = Kww
        if DA is None:
            np.negative(Vblock, out=H[:d, :d])
        else:
            AK = DA.T @ Kww
            H[:d, :d] = AK @ DA - Vblock
            np.negative(AK, out=H[:d, d:])
            H[d:, :d] = H[:d, d:].T
        return H

    def first_integrals(self, t: float, z):
        """Energy and angular momentum (scalar for dim 2, vector for dim 3)."""
        x, p = self._split(z)
        energy = self.hamiltonian(t, z)
        if self.dim == 2:
            mom = float(x[0] * p[1] - x[1] * p[0])
        else:
            mom = np.cross(x, p)
        return energy, mom
