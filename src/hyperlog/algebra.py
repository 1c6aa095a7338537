"""The paper's algebra on coefficient arrays: products, exp, log, the
branches of the argument and the charts of the logarithmic manifold.

A quaternion or octonion is an array of 4 or 8 real coefficients,
ordered (1, i, j, k) and (1, i, j, k, e, ie, je, ke); an array of them
holds the coefficients on its last axis, and a single value is a 1-D
array.  Multiplication is the doubling product (a, b)(c, d) =
(ac - d*b, da + bc*), which on the quaternions reproduces the usual
table ij = k, jk = i, ki = j.
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .errors import DimensionMismatch, NegativeRealOrZero, NotOnManifold, RealInput

_BASIS_NAMES = ("1", "i", "j", "k", "e", "ie", "je", "ke")


def basis(name: str, dim: int = 4) -> np.ndarray:
    """Basis element by name, e.g. basis('j') or basis('ie', dim=8)."""
    q = np.zeros(dim)
    q[_BASIS_NAMES[:dim].index(name)] = 1.0
    return q


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of a with the rows of b.

    A stacked (n,1,d) @ (n,d,1) matmul computes each product as np.dot
    computes one pair of vectors, so every result equals the one-row
    np.dot bit for bit; np.linalg.norm(axis=1) sums in another order and
    differs from the one-row norm in the last bit on some rows.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit."""
    return np.sqrt(row_dots(rows, rows))


def conj(q) -> np.ndarray:
    """Conjugate: the imaginary coefficients negated."""
    q = np.asarray(q, dtype=float)
    out = -q
    out[..., 0] = q[..., 0]
    return out


def _cd_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    if n == 1:
        return a * b
    h = n // 2
    a1, a2 = a[..., :h], a[..., h:]
    b1, b2 = b[..., :h], b[..., h:]
    return np.concatenate(
        (_cd_mul(a1, b1) - _cd_mul(conj(b2), a2),
         _cd_mul(b2, a1) + _cd_mul(a2, conj(b1))),
        axis=-1,
    )


def mul(a, b) -> np.ndarray:
    """Cayley-Dickson product over the last axis; quaternion and
    octonion operands are not mixed."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatch("cannot mix quaternion and octonion operands")
    return _cd_mul(a, b)


def exp(q) -> np.ndarray:
    """Exponential e^x (cos|y| + y sin|y| / |y|) of q = x + y, y imaginary."""
    q = np.asarray(q, dtype=float)
    x = q[..., 0]
    yv = q[..., 1:]
    yn = np.linalg.norm(yv, axis=-1)
    ex = np.exp(x)
    out = np.empty_like(q)
    out[..., 0] = ex * np.cos(yn)
    factor = np.where(yn > 0.0, np.sin(yn) / np.where(yn > 0.0, yn, 1.0), 1.0)
    out[..., 1:] = (ex * factor)[..., None] * yv
    return out


def log(q) -> np.ndarray:
    """Principal logarithm log|q| + Im q atan2(|Im q|, Re q) / |Im q|.

    Its argument is zero on the positive reals.  It is undefined on the
    closed negative reals, which raise NegativeRealOrZero; realness is
    judged by the tolerances in force.
    """
    q = np.asarray(q, dtype=float)
    im = q[..., 1:]
    imn = np.linalg.norm(im, axis=-1)
    n = np.linalg.norm(q, axis=-1)
    real = config.IN_FORCE.get().is_real(imn, n)
    if np.any(real & (q[..., 0] <= 0.0)):
        raise NegativeRealOrZero(
            "principal logarithm is undefined on the closed negative reals"
        )
    out = np.empty_like(q)
    out[..., 0] = np.log(n)
    angle = np.arctan2(imn, q[..., 0])
    out[..., 1:] = np.where(real, 0.0, angle / np.where(real, 1.0, imn))[..., None] * im
    return out


def branch_start(q: np.ndarray, k: int, toward: np.ndarray | None = None) -> tuple:
    """The k-th branch of the argument at one non-real value q, as the
    pair (u, angle) with u imaginary of unit norm (its d - 1 imaginary
    coefficients) and q = |q| exp(u angle).

    u is r = Im q / |Im q| for even k and -r for odd k, or, when an
    imaginary vector toward is given, the one of r and -r that points
    along it.  The angle is atan2(<Im q, u>, Re q) + 2 pi floor((k+1)/2):
    arg q + 2 l pi on the branch k = 2l and 2 pi - arg q + 2 l pi on the
    branch k = 2l + 1, where arg q = atan2(|Im q|, Re q).
    """
    r = q[1:] / float(np.linalg.norm(q[1:]))
    if toward is None:
        u = r if k % 2 == 0 else -r
    else:
        u = r if float(np.dot(toward, r)) > 0 else -r
    theta = math.atan2(float(np.dot(q[1:], u)), float(q[0]))
    return u, theta + 2.0 * math.pi * ((k + 1) // 2)


def real_branch_angle(x: float, k: int) -> float:
    """The angle of the k-th branch of the argument at a real x != 0:
    2 pi floor((k+1)/2) for x > 0 and (2 floor(k/2) + 1) pi for x < 0."""
    if x > 0:
        return 2.0 * math.pi * ((k + 1) // 2)
    return (2.0 * (k // 2) + 1.0) * math.pi


def branch_argument(q, k: int) -> np.ndarray:
    """The k-th branch argument u angle of one value q (see
    branch_start), as a value with zero real part; undefined on the real
    axis as judged by the tolerances in force."""
    q = np.asarray(q, dtype=float)
    if config.IN_FORCE.get().is_real(np.linalg.norm(q[1:]), np.linalg.norm(q)):
        raise RealInput("the argument's direction is undefined on the real axis")
    u, angle = branch_start(q, k)
    return np.concatenate(([0.0], u * angle))


def embed(q) -> tuple:
    """E(x + y) = (exp(x + y), y), y imaginary: the exp-side chart of the
    logarithmic manifold, the pairs (q, p) with p imaginary and
    q = |q| exp(p)."""
    q = np.asarray(q, dtype=float)
    p = q.copy()
    p[..., 0] = 0.0
    return exp(q), p


def project_log(q, p) -> np.ndarray:
    """L(q, p) = log|q| + p, the inverse of embed on the manifold.

    A pair off the manifold raises NotOnManifold: q = 0,
    |Re p| > VALUE_SAME, or |q - |q| exp(p)| > VALUE_SAME |q|.
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    if q.shape[-1] != p.shape[-1]:
        raise DimensionMismatch("q and p must have the same dimension")
    n = np.linalg.norm(q, axis=-1)
    resid = np.linalg.norm(exp(p) * n[..., None] - q, axis=-1)
    if np.any(n == 0.0) or np.any(np.abs(p[..., 0]) > config.VALUE_SAME) or np.any(
        resid > config.VALUE_SAME * n
    ):
        raise NotOnManifold("point fails the manifold membership check")
    out = p.copy()
    out[..., 0] += np.log(n)
    return out
