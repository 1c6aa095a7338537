"""Quaternion and octonion arithmetic plus the branch machinery.

Everything is backed by flat numpy coefficient vectors of length 4 or 8,
ordered (1, i, j, k) and (1, i, j, k, e, ie, je, ke).  Multiplication is
the doubling product (a, b)(c, d) = (ac - d*b, da + bc*), which on the
quaternions reproduces the usual table ij = k, jk = i, ki = j.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    NegativeRealOrZero,
    NotOnManifold,
    RealInput,
    ZeroInput,
)

Scalar = float | int | np.number


def _cd_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cayley-Dickson product of two coefficient vectors of equal length."""
    n = a.shape[0]
    if n == 1:
        return a * b
    h = n // 2
    a1, a2 = a[:h], a[h:]
    b1, b2 = b[:h], b[h:]
    return np.concatenate(
        (
            _cd_mul(a1, b1) - _cd_mul(_cd_conj(b2), a2),
            _cd_mul(b2, a1) + _cd_mul(a2, _cd_conj(b1)),
        )
    )


def _cd_conj(a: np.ndarray) -> np.ndarray:
    out = -a
    out[0] = a[0]
    return out


class Hyper:
    """A quaternion (4 coefficients) or octonion (8 coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.shape not in ((4,), (8,)):
            raise ValueError("expected 4 or 8 real coefficients")
        self.coeffs = c

    @classmethod
    def from_real(cls, x: Scalar, dim: int = 4) -> "Hyper":
        c = np.zeros(dim)
        c[0] = x
        return cls(c)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def re(self) -> float:
        return float(self.coeffs[0])

    @property
    def im(self) -> "Hyper":
        c = self.coeffs.copy()
        c[0] = 0.0
        return Hyper(c)

    def im_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs[1:]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def conj(self) -> "Hyper":
        return Hyper(_cd_conj(self.coeffs))

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Hyper):
            if other.dim != self.dim:
                raise DimensionMismatch(
                    "cannot mix quaternion and octonion operands"
                )
            return other.coeffs
        if isinstance(other, (int, float, np.number)):
            c = np.zeros(self.dim)
            c[0] = other
            return c
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Hyper(self.coeffs + c)

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Hyper(self.coeffs - c)

    def __rsub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Hyper(c - self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.number)):
            return Hyper(self.coeffs * float(other))
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return Hyper(_cd_mul(self.coeffs, c))

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.number)):
            return Hyper(self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.number)):
            return Hyper(self.coeffs / float(other))
        return NotImplemented

    def __neg__(self):
        return Hyper(-self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Hyper):
            return NotImplemented
        return self.dim == other.dim and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def allclose(self, other: "Hyper", tol: float = 1e-12) -> bool:
        return self.dim == other.dim and bool(
            np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=tol)
        )

    def is_real(self) -> bool:
        return bool(config.IN_FORCE.get().is_real(self.im_norm(), self.norm()))

    def __repr__(self):
        terms = ", ".join(repr(float(c)) for c in self.coeffs)
        return f"Hyper([{terms}])"


_BASIS_NAMES_4 = ("1", "i", "j", "k")
_BASIS_NAMES_8 = ("1", "i", "j", "k", "e", "ie", "je", "ke")


def basis(name: str, dim: int = 4) -> Hyper:
    """Basis element by name, e.g. basis('j') or basis('ie', dim=8)."""
    names = _BASIS_NAMES_4 if dim == 4 else _BASIS_NAMES_8
    c = np.zeros(dim)
    c[names.index(name)] = 1.0
    return Hyper(c)


@dataclass(frozen=True)
class ImaginaryUnit:
    """A purely imaginary element of unit norm."""

    value: Hyper

    def __post_init__(self):
        if abs(self.value.re) > 1e-9 or abs(self.value.norm() - 1.0) > 1e-9:
            raise ValueError("not a unit imaginary element")

    @classmethod
    def from_vector(cls, v: Hyper) -> "ImaginaryUnit":
        n = v.im_norm()
        if n == 0.0:
            raise RealInput("cannot normalise a real element")
        c = v.coeffs.copy()
        c[0] = 0.0
        return cls(Hyper(c / n))

    def __neg__(self) -> "ImaginaryUnit":
        return ImaginaryUnit(-self.value)

    def dot(self, other: "ImaginaryUnit") -> float:
        return float(np.dot(self.value.coeffs, other.value.coeffs))

    def scaled(self, angle: float) -> Hyper:
        return self.value * angle


@dataclass(frozen=True)
class ProjectiveUnit:
    """An imaginary direction up to sign, with a canonical representative.

    The representative flips sign so that its first coefficient larger
    than 1e-12 in magnitude is positive; this makes equality and hashing
    deterministic.
    """

    representative: Hyper

    @classmethod
    def of(cls, u: ImaginaryUnit) -> "ProjectiveUnit":
        c = u.value.coeffs
        sign = 1.0
        for x in c[1:]:
            if abs(x) > 1e-12:
                sign = 1.0 if x > 0 else -1.0
                break
        return cls(Hyper(c * sign))

    def __eq__(self, other):
        if not isinstance(other, ProjectiveUnit):
            return NotImplemented
        return bool(
            np.allclose(
                self.representative.coeffs,
                other.representative.coeffs,
                rtol=0.0,
                atol=1e-9,
            )
        )

    def __hash__(self):
        return hash(tuple(np.round(self.representative.coeffs, 6)))


def unit_im(q: Hyper) -> ImaginaryUnit:
    """The imaginary direction Im(q)/|Im(q)|; undefined on the real axis."""
    if config.IN_FORCE.get().is_real(q.im_norm(), q.norm()):
        raise RealInput("imaginary direction is undefined for real input")
    return ImaginaryUnit.from_vector(q)


def arg_angle(q: Hyper) -> float:
    """Slice argument in [0, pi]: the angle atan2(|Im q|, Re q)."""
    if q.norm() <= config.IN_FORCE.get().eps_real:
        raise ZeroInput("argument of zero is undefined")
    return math.atan2(q.im_norm(), q.re)


def principal_argument(q: Hyper) -> Hyper:
    """Principal argument: unit_im(q) times the slice argument.

    Extended by zero on the positive reals; undefined on (-inf, 0].
    """
    theta = arg_angle(q)
    if q.is_real():
        if q.re < 0:
            raise NegativeRealOrZero(
                "principal argument is undefined on the negative reals"
            )
        return Hyper.from_real(0.0, q.dim)
    return unit_im(q).scaled(theta)


def branch_angle(q: Hyper, k: int) -> tuple[ImaginaryUnit, float]:
    """The k-th branch of the slice argument as a (unit, angle) pair.

    Even k = 2l uses the direction of q with angle arg + 2l*pi; odd
    k = 2l+1 uses the opposite direction with angle (2*pi - arg) + 2l*pi.
    Defined only off the real axis.
    """
    u = unit_im(q)
    a = arg_angle(q)
    if k % 2 == 0:
        return u, a + k * math.pi
    l = (k - 1) // 2
    return -u, (2.0 * math.pi - a) + 2.0 * l * math.pi


def branch_argument(q: Hyper, k: int) -> Hyper:
    """The k-th branch argument as a hypercomplex value."""
    u, a = branch_angle(q, k)
    return u.scaled(a)


def exp_h(q: Hyper) -> Hyper:
    """Exponential, e^x (cos y + I sin y) with q = x + I y."""
    x = q.re
    y = q.im_norm()
    ex = math.exp(x)
    if y == 0.0:
        return Hyper.from_real(ex, q.dim)
    u = ImaginaryUnit.from_vector(q)
    return Hyper.from_real(ex * math.cos(y), q.dim) + u.scaled(ex * math.sin(y))


def log_principal(q: Hyper) -> Hyper:
    """Principal logarithm log|q| + Arg(q); undefined on (-inf, 0]."""
    n = q.norm()
    if q.is_real() and q.re <= 0:
        raise NegativeRealOrZero(
            "principal logarithm is undefined on the closed negative reals"
        )
    return Hyper.from_real(math.log(n), q.dim) + principal_argument(q)


@dataclass(frozen=True)
class ManifoldPoint:
    """A point (q, p) of the logarithmic manifold: q = |q| exp(p), p imaginary."""

    q: Hyper
    p: Hyper


def on_manifold(q: Hyper, p: Hyper, tol: float = 1e-9) -> bool:
    """Check q = |q| exp(p) up to a relative tolerance, with p imaginary."""
    if q.dim != p.dim:
        raise DimensionMismatch("q and p must have the same dimension")
    if abs(p.re) > tol:
        return False
    model = exp_h(p) * q.norm()
    return float((model - q).norm()) <= tol * max(1.0, q.norm())


def embed(q: Hyper) -> ManifoldPoint:
    """E(x + I y) = (exp(x + I y), I y): the exp-side chart of the manifold."""
    return ManifoldPoint(exp_h(q), q.im)


def project_log(pt: ManifoldPoint, tol: float = 1e-9) -> Hyper:
    """L(q, p) = log|q| + p, the inverse of embed on the manifold."""
    if not on_manifold(pt.q, pt.p, tol):
        raise NotOnManifold("point fails the manifold membership check")
    return Hyper.from_real(math.log(pt.q.norm()), pt.q.dim) + pt.p


def tangent_chart(q: Hyper) -> ManifoldPoint:
    """T(x + I y) = (sinh x cos y + I sinh x sin y, I y)."""
    x = q.re
    y = q.im_norm()
    sh = math.sinh(x)
    if y == 0.0:
        return ManifoldPoint(Hyper.from_real(sh, q.dim), Hyper.from_real(0.0, q.dim))
    u = ImaginaryUnit.from_vector(q)
    val = Hyper.from_real(sh * math.cos(y), q.dim) + u.scaled(sh * math.sin(y))
    return ManifoldPoint(val, u.scaled(y))


def units_close(u: np.ndarray, v: np.ndarray, tol: float = config.DEFAULT.theta_tol) -> bool:
    """Whether two unit direction vectors agree within the angle tolerance."""
    d = float(np.dot(u, v))
    return d >= math.cos(tol)
