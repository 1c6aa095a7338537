"""Companions, their lifts, canonical forms and shadows.

The companion of a path is its imaginary direction, viewed projectively
and extended continuously through the contacts with the real axis.  Here
it is realised as a continuous unit field over the sample grid: plain
sign-matching propagation handles isolated contacts, and real runs are
bridged according to a flip/bounce directive because both continuations
are legitimate there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import Hyper, ImaginaryUnit, ProjectiveUnit
from .errors import InitialMismatch, SliceMismatch
from .obstruction import (
    BAD_KINDS,
    BOUNCE,
    FLIP,
    ObstructionReport,
    classify_interval,
)
from .pathkit import SampledPath


@dataclass(frozen=True)
class Companion:
    """A continuous choice of unit imaginary directions along a path.

    units[n] is the direction at params[n] (imaginary components only).
    exists is False when some contact admits no continuous direction;
    unique is False when the path spends positive time on the real axis
    or is entirely real, in which case the stored field is the one picked
    by the directives.
    """

    params: np.ndarray
    units: np.ndarray
    exists: bool
    unique: bool
    directives: tuple

    def unit(self, n: int) -> ImaginaryUnit:
        c = np.zeros(self.units.shape[1] + 1)
        c[1:] = self.units[n]
        return ImaginaryUnit(Hyper(c))

    def projective(self, n: int) -> ProjectiveUnit:
        return ProjectiveUnit.of(self.unit(n))


def _slerp(u0: np.ndarray, u1: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Geodesic interpolation between unit vectors, one row per fraction."""
    d = float(np.clip(np.dot(u0, u1), -1.0, 1.0))
    omega = math.acos(d)
    if omega < 1e-12:
        return np.tile(u0, (len(fracs), 1))
    if math.pi - omega < 1e-9:
        # antipodal: route through a fixed perpendicular direction
        perp = np.zeros_like(u0)
        perp[np.argmin(np.abs(u0))] = 1.0
        perp = perp - np.dot(perp, u0) * u0
        perp /= np.linalg.norm(perp)
        out = np.empty((len(fracs), len(u0)))
        for n, f in enumerate(fracs):
            out[n] = math.cos(math.pi * f) * u0 + math.sin(math.pi * f) * perp
        return out
    out = np.empty((len(fracs), len(u0)))
    for n, f in enumerate(fracs):
        out[n] = (
            math.sin((1.0 - f) * omega) * u0 + math.sin(f * omega) * u1
        ) / math.sin(omega)
    return out


def _directive_for_run(rep: ObstructionReport, run, directives) -> str:
    """Resolved flip/bounce choice for one real run."""
    for m, iv in enumerate(rep.intervals):
        if any(r.t0 == run.t0 for r in iv.runs):
            d = directives[m] if m < len(directives) else None
            return classify_interval(iv, d)
    return BOUNCE


def unit_field(
    sampled: SampledPath,
    rep: ObstructionReport,
    directives: tuple = (),
    seed: np.ndarray | None = None,
) -> np.ndarray:
    """Continuous unit directions over the sample grid.

    seed, when given, fixes the sign of the field at the first sample
    (it must be parallel to the path's direction there, or, for a real
    start, it simply becomes the starting direction).
    """
    vals = sampled.values
    n = len(sampled.params)
    dim = vals.shape[1]
    mags = np.linalg.norm(vals, axis=1)
    im_vecs = vals[:, 1:]
    im_norms = np.linalg.norm(im_vecs, axis=1)
    real = config.is_real(im_norms, mags)

    units = np.zeros((n, dim - 1))
    if np.all(real):
        if seed is not None:
            units[:] = seed
        else:
            units[:, 0] = 1.0
        return units

    a = float(sampled.params[0])
    b = float(sampled.params[-1])
    run_bounds = []
    for r in rep.runs:
        kind = _directive_for_run(rep, r, directives)
        if r.wrap:
            run_bounds.append((r.t0, b, kind))
            run_bounds.append((a, a + (r.t1 - b), kind))
        else:
            run_bounds.append((r.t0, r.t1, kind))

    def run_kind_at(t: float) -> str | None:
        for t0, t1, kind in run_bounds:
            if t0 - 1e-9 <= t <= t1 + 1e-9:
                return kind
        return None

    prev = None
    pending_real = []  # indices of a real stretch awaiting interpolation
    pending_flip = False
    for m in range(n):
        if real[m]:
            pending_real.append(m)
            k = run_kind_at(float(sampled.params[m]))
            if k == FLIP:
                pending_flip = True
            continue
        raw = im_vecs[m] / im_norms[m]
        if prev is None:
            u = raw.copy()
            if seed is not None and float(np.dot(seed, raw)) < 0:
                u = -u
        else:
            carried = -prev if pending_flip else prev
            s = 1.0 if float(np.dot(carried, raw)) >= 0 else -1.0
            u = s * raw
        if pending_real:
            if prev is None:
                fill = seed if seed is not None else u
                units[pending_real] = np.tile(fill, (len(pending_real), 1))
            else:
                # rotate through the real stretch from entry to exit side
                fr = np.linspace(0.0, 1.0, len(pending_real) + 2)[1:-1]
                units[pending_real] = _slerp(prev, u, fr)
            pending_real = []
        pending_flip = False
        units[m] = u
        prev = u
    if pending_real:
        # trailing real stretch: rotate to the (possibly flipped) carry
        tail = -prev if pending_flip else prev
        fr = np.linspace(0.0, 1.0, len(pending_real) + 2)[1:-1]
        units[pending_real] = _slerp(prev, tail, fr)
    return units


def build_companion(
    sampled: SampledPath,
    rep: ObstructionReport,
    directives: tuple = (),
    seed: np.ndarray | None = None,
) -> Companion:
    """The companion of a path, as a continuous unit field with flags."""
    exists = all(c.kind not in BAD_KINDS for c in rep.contacts)
    vals = sampled.values
    all_real = bool(np.all(config.is_real(
        np.linalg.norm(vals[:, 1:], axis=1), np.linalg.norm(vals, axis=1)
    )))
    unique = rep.companion_unique and not all_real
    units = unit_field(sampled, rep, directives, seed)
    return Companion(sampled.params, units, exists, unique, tuple(directives))


def lift_companion(c: Companion, initial: ImaginaryUnit) -> np.ndarray:
    """The unit field whose starting value is the requested one.

    A companion has exactly two lifts, opposite to each other; initial
    picks one of them.
    """
    u0 = c.units[0]
    want = initial.value.coeffs[1:]
    d = float(np.dot(u0, want))
    if d >= math.cos(config.THETA_TOL):
        return c.units.copy()
    if d <= -math.cos(config.THETA_TOL):
        return -c.units
    raise InitialMismatch("initial unit is not a value of the companion")


@dataclass(frozen=True)
class Shadow:
    """The planar curve (x, y) cut out by a companion lift."""

    params: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def conjugate(self) -> "Shadow":
        return Shadow(self.params, self.x.copy(), -self.y)

    def to_csv(self) -> str:
        lines = ["t,x,y"]
        for t, x, y in zip(self.params, self.x, self.y):
            lines.append(",".join(repr(float(c)) for c in (t, x, y)))
        return "\n".join(lines) + "\n"


def canonical_form(
    sampled: SampledPath, units: np.ndarray, tol: float | None = None
) -> Shadow:
    """Coordinates gamma = x + U y along a unit field U.

    Raises when the field does not actually carry the imaginary part,
    which would mean the reconstruction x + U y misses the path.
    """
    if tol is None:
        tol = config.TOL_LIFT
    vals = sampled.values
    x = vals[:, 0].copy()
    y = np.einsum("nd,nd->n", vals[:, 1:], units)
    resid = np.linalg.norm(vals[:, 1:] - y[:, None] * units, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(vals, axis=1))
    if np.any(resid > tol * scale):
        worst = int(np.argmax(resid / scale))
        raise SliceMismatch(
            f"reconstruction residual {resid[worst]:.3e} at t={sampled.params[worst]!r}"
        )
    return Shadow(sampled.params.copy(), x, y)


def shadow_of(
    sampled: SampledPath,
    rep: ObstructionReport,
    directives: tuple = (),
    seed: np.ndarray | None = None,
) -> Shadow:
    """Convenience: canonical form along the companion picked by the seed."""
    units = unit_field(sampled, rep, directives, seed)
    return canonical_form(sampled, units)
