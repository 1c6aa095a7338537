"""Companions as unit fields, canonical forms, shadows and their turns.

The companion of a path is its imaginary direction, viewed projectively
and extended continuously through the contacts with the real axis.  It
is its unit field over the sample grid: the field carries its sign
relative to the path's own direction, and each real stretch is read off
the report item that holds it, a contact by its direction limits and a
real run by its limits and a flip/bounce directive, because both
continuations are legitimate there.  It exists when no contact is in
obstruction.BAD_KINDS, is unique when the report's companion_unique
holds and the path is not all real, and its two lifts are the fields
seeded with u and with -u.
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
    """Geodesic interpolation between unit vectors, one row per fraction;
    u0 itself on every row when u1 is u0."""
    d = float(np.clip(np.dot(u0, u1), -1.0, 1.0))
    omega = math.acos(d)
    # the dot product of u0 with itself can round to 1 - 2**-52, whose
    # acos is 2e-8
    if omega < 1e-12 or np.array_equal(u0, u1):
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
    seed is given and points against r_0, else +1.  Each real stretch
    lies in one item of the report (see stretch_items), with an entry
    limit in and an exit limit out.  Across an item with both, S is
    multiplied by sign(r_prev.in) sigma sign(out.r_next), sigma being -1
    for a flip and +1 otherwise: a bounce keeps S relative to the path's
    own direction and a flip negates it, whatever the angle between in
    and out.  Between consecutive non-real samples, and across an item
    that lacks a limit, S is multiplied by sign(r_prev.r_next).  A zero
    dot product reads as +1.

    Each stretch is a slerp over its samples from its entry unit to its
    exit unit: S in and S sigma out with the carried S, a contact keeping
    S in throughout; where the item lacks a limit, the field beside the
    stretch, a trailing stretch turning to its entry limit when there is
    one.  The grid's first sample is the seed, or else the exit unit;
    its last is the exit unit.  A path that is real throughout takes the
    seed, or else +i.  The seed must be parallel to the path's direction
    at a non-real start.
    """
    n = len(sampled.params)
    units = np.zeros((n, sampled.dim - 1))
    # read before anything else, so that surplus directives raise on any path
    items = stretch_items(sampled, rep, directives)
    if sampled.real.all():
        units[:] = seed if seed is not None else np.eye(sampled.dim - 1)[0]
        return units

    nonreal = np.flatnonzero(~sampled.real)
    dirs = sampled.units[nonreal]
    stretches = sampled.stretches.tolist()
    # the first non-real sample after each stretch, as an index of dirs
    after = np.searchsorted(nonreal, sampled.stretches[:, 1]).tolist()
    steps = np.where(row_dots(dirs[:-1], dirs[1:]) < 0.0, -1.0, 1.0)
    for (i, j), m, (d_in, d_out, sigma, _contact) in zip(stretches, after, items):
        if 0 < i and j < n and d_in is not None and d_out is not None:
            steps[m - 1] = _sign(dirs[m - 1] @ d_in) * sigma * _sign(d_out @ dirs[m])
    s0 = -1.0 if seed is not None and float(np.dot(seed, dirs[0])) < 0 else 1.0
    carry = s0 * np.cumprod(np.concatenate(([1.0], steps)))
    units[nonreal] = carry[:, None] * dirs

    for (i, j), m, (d_in, d_out, sigma, contact) in zip(stretches, after, items):
        if d_in is not None and d_out is not None:
            # S on entry, read from the side of the stretch that the grid has
            s = (carry[m - 1] * _sign(dirs[m - 1] @ d_in) if i > 0
                 else carry[m] * _sign(dirs[m] @ d_out) * sigma)
            enter = s * d_in
            leave = enter if contact else s * sigma * d_out
        else:
            enter = units[i - 1] if i > 0 else None
            leave = units[j] if j < n else enter
            if j == n and d_in is not None:
                leave = _sign(enter @ d_in) * d_in
        if i == 0:
            enter = seed if seed is not None else leave
        if enter is leave:
            units[i:j] = enter
            continue
        lo, hi = max(i - 1, 0), min(j, n - 1)
        units[i:j] = _slerp(enter, leave, (np.arange(i, j) - lo) / (hi - lo))
    return units


def _sign(x: float) -> float:
    """-1 for a negative x, else +1."""
    return -1.0 if x < 0 else 1.0


def stretch_items(sampled: SampledPath, rep: ObstructionReport, directives=()) -> list:
    """(in, out, sigma, contact) of the report item that holds each real
    stretch of the grid: the item's entry and exit direction limits,
    each None where it has none; sigma, -1 for a flip contact and for a
    run that run_kinds resolves as a flip under the directives, else +1;
    and whether it is a contact.  A stretch lies in the item whose span
    on the grid (see at_grid) is nearest its middle, a copy past either
    end of the grid included, as a stretch at an end can lie in an item
    just past it; one with no item in the report lacks both limits."""
    params, rows = sampled.params, sampled.stretches
    items = [(c.left_dir, c.right_dir, c.kind, True) for c in rep.contacts] + [
        (r.in_dir, r.out_dir, kind, False) for r, kind in zip(rep.runs, run_kinds(rep, directives))]
    if not items or not len(rows):
        return [(None, None, 1.0, False)] * len(rows)
    lo, hi, key = at_grid(rep, float(params[0]), float(params[-1]))
    # the last item to start by each middle, or the next one when nearer
    mid = 0.5 * (params[rows[:, 0]] + params[rows[:, 1] - 1])
    before = np.maximum(np.searchsorted(lo, mid, side="right") - 1, 0)
    nxt = np.minimum(before + 1, len(lo) - 1)
    picked = key[np.where(lo[nxt] - mid < mid - hi[before], nxt, before)].tolist()
    return [(*(None if d is None else np.array(d) for d in (d_in, d_out)),
             -1.0 if kind == FLIP else 1.0, contact)
            for d_in, d_out, kind, contact in (items[k] for k in picked)]


def at_grid(rep: ObstructionReport, a: float, b: float) -> tuple:
    """(lo, hi, key): the span [lo, hi] of each contact and real run of a
    report on a grid from a to b, sorted by lo, and its key, the index
    of the item among the contacts followed by the runs.

    An open report's items lie at their own parameters.  A closed report
    is read from any root: its items start modulo the period b - a from
    the grid's first sample a, one starting within PARAM_SAME of that
    root, on either side, at a; and each item lies once more one period
    back and one period on, an item at a then at b."""
    lo = np.array([c.t for c in rep.contacts] + [r.t0 for r in rep.runs], dtype=float)
    length = np.array([0.0] * len(rep.contacts) + [r.t1 - r.t0 for r in rep.runs])
    key = np.arange(len(lo))
    if rep.closed:
        lo = lo + (b - a) * ((lo < a).astype(float) - (lo >= b))
        lo = np.where(np.minimum(lo - a, b - lo) <= config.PARAM_SAME * (b - a), a, lo)
        lo = np.concatenate((lo - (b - a), lo, np.where(lo == a, b, lo + (b - a))))
        length, key = np.concatenate((length,) * 3), np.concatenate((key,) * 3)
    order = np.argsort(lo, kind="stable")
    return lo[order], lo[order] + length[order], key[order]


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
