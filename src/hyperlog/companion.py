"""Companions as unit fields, canonical forms, shadows and their turns.

The companion of a path is its imaginary direction, viewed projectively
and extended continuously through the contacts with the real axis.  It
is its unit field over the sample grid: sign-matching propagation
handles isolated contacts, and real runs are bridged according to a
flip/bounce directive because both continuations are legitimate there.
It exists when no contact is in obstruction.BAD_KINDS, is unique when
the report's companion_unique holds and the path is not all real, and
its two lifts are the fields seeded with u and with -u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import row_dots
from .errors import HypothesisViolated, SliceMismatch, StepTooLarge
from .obstruction import FLIP, ObstructionReport, run_kinds
from .pathkit import SampledPath, csv_text


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


def unit_field(
    sampled: SampledPath,
    rep: ObstructionReport,
    directives: tuple = (),
    seed: np.ndarray | None = None,
) -> np.ndarray:
    """Continuous unit directions over the sample grid.

    At the k-th non-real sample the field is S_k r_k, where r_k is the
    unit Im/|Im| there and S_k = +-1 carries the sign.  S_0 is -1 when a
    seed is given and points against r_0, else +1.  After that S_k is
    S_{k-1} times the sign of r_{k-1}.r_k, negated once more when a real
    sample between the two lies in a run resolved as a flip (see
    run_kinds); an exactly zero r_{k-1}.r_k restarts the carry at +1.
    A real stretch is bridged by a slerp from the direction before it to
    the one after it.  A trailing stretch turns, by its last sample, to
    the path's arrival direction there (see arrival), taken with the
    sign of the direction before it (that direction when there is no
    limit) and negated after a flip: the grid's last non-real sample can
    lie a whole grid step before the stretch, and the limit does not
    depend on the grid.  A leading stretch, or a path that is real
    throughout, takes the seed, or else the first direction (+i when
    there is none); the seed must be parallel to the path's direction at
    a non-real start.
    """
    params = sampled.params
    n = len(params)
    real = sampled.real
    kinds = run_kinds(rep, directives)

    units = np.zeros((n, sampled.dim - 1))
    if real.all():
        if seed is not None:
            units[:] = seed
        else:
            units[:, 0] = 1.0
        return units

    # real samples in a run resolved as a flip: the first run that covers
    # a real sample decides.  A run covers the samples within tol of
    # [t0, t1] and, on a closed report, of that interval moved back or on
    # by the grid's span: a closed report's runs are read modulo its
    # period, so one report serves a grid that starts anywhere on the loop
    a, b = float(params[0]), float(params[-1])
    tol = config.PARAM_SAME * (b - a)
    shifts = (0.0, a - b, b - a) if rep.closed else (0.0,)
    flip = np.zeros(n, dtype=bool)
    uncovered = real.copy()
    for r, kind in zip(rep.runs, kinds):
        for s in shifts:
            cover = uncovered & (r.t0 + s - tol <= params) & (params <= r.t1 + s + tol)
            uncovered &= ~cover
            if kind == FLIP:
                flip |= cover

    # the sign carry: a cumulative product of +-1 factors that restarts
    # at each exact zero; row_dots gives np.dot's bits, zeros included
    nonreal = np.flatnonzero(~real)
    dirs = sampled.values[nonreal, 1:] / sampled.ims[nonreal, None]
    s0 = -1.0 if seed is not None and float(np.dot(seed, dirs[0])) < 0 else 1.0
    crossed = np.diff(np.cumsum(flip)[nonreal]) > 0
    steps = np.sign(row_dots(dirs[:-1], dirs[1:])) * np.where(crossed, -1.0, 1.0)
    # a leading 1 lets index 0 stand for "no restart yet"
    g = np.concatenate(([1.0, s0], steps))
    reset = g == 0.0
    g[reset] = 1.0
    carry = np.cumprod(g)
    restart = np.maximum.accumulate(np.where(reset, np.arange(len(g)), 0))
    units[nonreal] = (carry * carry[restart])[1:, None] * dirs

    # the real stretches i..j-1
    for i, j in sampled.stretches.tolist():
        if i == 0:
            units[:j] = seed if seed is not None else units[j]
            continue
        prev = units[i - 1]
        if j < n:
            units[i:j] = _slerp(prev, units[j], np.linspace(0.0, 1.0, j - i + 2)[1:-1])
            continue
        end = arrival(rep, a, b)
        if end is None:
            end = prev
        elif float(np.dot(prev, end)) < 0:
            end = -end
        if flip[i:].any():
            end = -end
        units[i:] = _slerp(prev, end, np.linspace(0.0, 1.0, n - i + 1)[1:])
    return units


def at_grid(rep: ObstructionReport, ts, a: float, b: float) -> np.ndarray:
    """Positions of the report parameters ts on a grid from a to b.

    A closed report is read from any root: its parameters are taken
    modulo the period b - a from the grid's first sample a, and one
    within PARAM_SAME of that root, on either side, is a.  An open
    report's parameters are their own positions."""
    ts = np.asarray(ts, dtype=float)
    if not rep.closed:
        return ts
    ts = ts + (b - a) * ((ts < a).astype(float) - (ts >= b))
    return np.where(np.minimum(ts - a, b - ts) <= config.PARAM_SAME * (b - a), a, ts)


def arrival(rep: ObstructionReport, a: float, b: float) -> np.ndarray | None:
    """The direction limit from the left at the last real item of the
    report on a grid from a to b (see at_grid), where a trailing real
    stretch begins: the direction with which the path arrives at the
    axis there; on a loop an item at the root is met last, at b.  None
    when there is no item or the item has no such limit."""
    ts = at_grid(rep, [c.t for c in rep.contacts] + [r.t0 for r in rep.runs], a, b)
    if rep.closed:
        ts[ts == a] = b
    return _limit([c.left_dir for c in rep.contacts] + [r.in_dir for r in rep.runs], ts, np.argmax)


def departure(rep: ObstructionReport, a: float, b: float) -> np.ndarray | None:
    """The direction limit from the right at the first real item of the
    report on a grid from a to b (see at_grid), where a leading real
    stretch ends: the direction with which the path leaves the axis
    there.  None when there is no item or the item has no such limit."""
    ts = at_grid(rep, [c.t for c in rep.contacts] + [r.t1 for r in rep.runs], a, b)
    return _limit([c.right_dir for c in rep.contacts] + [r.out_dir for r in rep.runs], ts, np.argmin)


def _limit(dirs, ts, pick) -> np.ndarray | None:
    """The direction of the item that pick chooses by its position ts."""
    direction = dirs[int(pick(ts))] if dirs else None
    return None if direction is None else np.array(direction)


@dataclass(frozen=True)
class Shadow:
    """The planar curve (x, y) cut out by a companion lift."""

    params: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def conjugate(self) -> "Shadow":
        return Shadow(self.params, self.x.copy(), -self.y)

    def to_csv(self) -> str:
        return csv_text(["t", "x", "y"], np.column_stack((self.params, self.x, self.y)))


def canonical_form(sampled: SampledPath, units: np.ndarray) -> Shadow:
    """Coordinates gamma = x + U y along a unit field U.

    Raises when the field does not actually carry the imaginary part,
    which would mean the reconstruction x + U y misses the path.
    """
    vals = sampled.values
    x = vals[:, 0].copy()
    y = np.einsum("nd,nd->n", vals[:, 1:], units)
    resid = np.linalg.norm(vals[:, 1:] - y[:, None] * units, axis=1)
    if np.any(resid > config.TOL_LIFT * sampled.mags):
        worst = int(np.argmax(resid / sampled.mags))
        raise SliceMismatch(
            f"reconstruction residual {resid[worst]:.3e} at t={float(sampled.params[worst])}"
        )
    return Shadow(sampled.params.copy(), x, y)


def shadow_of(
    sampled: SampledPath, rep: ObstructionReport, directives: tuple = ()
) -> Shadow:
    """Convenience: canonical form along the companion of unit_field."""
    return canonical_form(sampled, unit_field(sampled, rep, directives))


def argument_steps(z: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Steps of the argument of z between consecutive samples; one
    within config.THETA_TOL of a half turn raises StepTooLarge naming its t."""
    dphi = np.angle(z[1:] * np.conj(z[:-1]))
    if np.any(np.abs(dphi) >= math.pi - config.THETA_TOL):
        worst = int(np.argmax(np.abs(dphi)))
        raise StepTooLarge(
            f"argument step {abs(dphi[worst]):.3f} rad near t={float(params[worst])}"
        )
    return dphi


def whole_turns(angle: float, what: str) -> int:
    """An angle as a count of whole turns; what names it in the error
    raised when it is more than 1e-6 turns away from one."""
    turns = angle / (2.0 * math.pi)
    n = round(turns)
    if abs(turns - n) > 1e-6:
        raise HypothesisViolated(f"{what} {turns!r} is not a whole number of turns")
    return int(n)
