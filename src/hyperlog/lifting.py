"""Continuous logarithms along paths.

A lift is built from a continuous unit field U along the path: read
off the planar curve
z = x + i y with y the component of the imaginary part along U, unwrap
the argument of z, and assemble log|gamma| + U arg.  Flips, bounces and
real runs all come out of the unit-field propagation; the branch index
on each piece is recovered as floor(arg / pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, config
from .companion import argument_steps, at_grid, stretch_items, unit_field
from .errors import InitialMismatch, MissingInitialUnit
from .obstruction import BAD_KINDS, ObstructionReport, obstruct_path
from .pathkit import FALLBACK_SAMPLES  # noqa: F401  (perfbench/tracing.py reads it here)
from .pathkit import PathSpec, SampledPath, csv_text


@dataclass(frozen=True)
class LogLift:
    """Sampled continuous logarithm of a path.

    values[n] = log|gamma| + units[n] * arg[n]; branch_trace lists
    (t_start, t_end, k) for the branch index between obstructions: one
    piece per stretch of the grid between the report's items that holds
    a non-real sample, k being floor(arg / pi) there, neighbours with
    equal k merged (see _branch_trace).
    """

    params: np.ndarray
    values: np.ndarray
    arg: np.ndarray
    units: np.ndarray
    k0: int
    branch_trace: tuple

    @property
    def final_branch(self) -> int:
        """Branch index after the last obstruction: the last trace
        piece's, or k0 on a path real throughout."""
        return self.branch_trace[-1][2] if self.branch_trace else self.k0

    def to_csv(self) -> str:
        header = ["t"] + [f"c{c}" for c in range(self.values.shape[1])] + ["k"]
        return csv_text(header, np.column_stack((self.params, self.values)),
                        np.floor(self.arg / math.pi).astype(int))


@dataclass(frozen=True)
class LiftResult:
    status: str  # "ok" or "fails_at"
    lift: LogLift | None = None
    t_fail: float | None = None
    reason: str | None = None
    closed_lift: bool | None = None
    sampling: str = "adaptive"


def verify_lift(lift: LogLift, sampled: SampledPath) -> float:
    """Largest relative deviation of exp(lift) from the path samples."""
    model = algebra.exp(lift.values)
    resid = np.linalg.norm(model - sampled.values, axis=1)
    return float(np.max(resid / sampled.mags))


def terminal_branch(k0: int, sigma: int) -> int:
    """Branch index after the last obstruction, from the start branch
    and the signature of the path."""
    return k0 + (-1) ** (k0 % 2) * sigma


def _seed_and_start_arg(sampled, k0, initial_unit):
    """Starting unit field sign and starting argument value: the k0-th
    branch of the argument at the first sample.  A k0 that is not an
    integer raises ValueError."""
    if not isinstance(k0, (int, np.integer)):
        raise ValueError(f"k0 must be an integer, got {k0!r}")
    v0 = sampled.values[0]
    init_vec = None
    if initial_unit is not None:
        init_vec = np.asarray(initial_unit, dtype=float)
        if init_vec.shape != (sampled.dim - 1,):
            raise InitialMismatch(
                f"initial unit must have {sampled.dim - 1} imaginary coefficients, "
                f"got {init_vec.size}"
            )
        if not np.all(np.isfinite(init_vec)):
            raise InitialMismatch("initial unit must be finite")
        if abs(float(np.linalg.norm(init_vec)) - 1.0) > 1e-9:
            raise InitialMismatch("initial unit must have unit norm")
    if not sampled.real[0]:
        seed, arg0 = algebra.branch_start(v0, k0, init_vec)
        if init_vec is not None and abs(float(np.dot(init_vec, seed))) < math.cos(
            config.THETA_TOL
        ):
            raise InitialMismatch(
                "initial unit is not parallel to the path direction"
            )
        return seed, arg0
    arg0 = algebra.real_branch_angle(float(v0[0]), k0)
    if abs(arg0) > 1e-12 and init_vec is None:
        raise MissingInitialUnit(
            "a lift from a real start with nonzero argument needs an initial unit"
        )
    return init_vec, arg0


def _branch_trace(sampled: SampledPath, spans: tuple, arg) -> tuple:
    """(t_start, t_end, k) of each piece of the grid between the spans
    (lo, hi) of the report's items on it (see lift_grid) that holds a
    non-real sample, k being floor(arg / pi) there; neighbouring pieces
    with equal k are one.  A piece runs from the end of the span before
    it, or the grid's start, to the start of the span after it, or the
    grid's end."""
    a, b = float(sampled.params[0]), float(sampled.params[-1])
    lo, hi = spans
    nonreal = np.flatnonzero(~sampled.real)
    if not len(nonreal):
        return ()
    gap = np.searchsorted(lo, sampled.params[nonreal], side="right")
    first = np.flatnonzero(np.concatenate(([True], gap[1:] != gap[:-1])))
    gap, k = gap[first], np.floor(arg[nonreal[first]] / math.pi).astype(int)
    step = k[1:] != k[:-1]
    new = np.flatnonzero(np.concatenate(([True], step)))
    last = np.flatnonzero(np.concatenate((step, [True])))
    return tuple(zip(np.append(a, hi)[gap[new]].tolist(),
                     np.append(lo, b)[gap[last]].tolist(), k[new].tolist()))


def lift_grid(sampled: SampledPath, rep: ObstructionReport, k0: int = 0,
              initial_unit=None, directives: tuple = ()) -> tuple:
    """(units, arg, fail, spans) of the continuous logarithm on branch k0
    over a sample grid of a path, read with the path's report: the grid
    can be a loop's own or one re-rooted anywhere on it.  spans is
    (lo, hi), the spans of the report's items that meet the grid (see
    at_grid).  fail is None, or (t, kind) of the first contact along the
    grid where a nonzero argument meets a contact without the direction
    limit it needs, t its position on the grid; a contact at either end
    of the grid, such as a loop's root, is met from one side only.
    Unusable inputs raise.
    """
    a, b = float(sampled.params[0]), float(sampled.params[-1])
    seed, arg0 = _seed_and_start_arg(sampled, k0, initial_unit)
    units = unit_field(sampled, rep, directives, seed)

    # at a real start the field can only leave along the path's own
    # direction, its one-sided limit where the start's real stretch ends
    # (the grid's first non-real sample can lie a grid step further on);
    # a sideways initial unit has no continuation
    if seed is not None and sampled.real[0] and not sampled.real.all():
        leaving = stretch_items(sampled, rep)[0][1]
        if leaving is None:
            leaving = units[int(np.argmax(~sampled.real))]
        if abs(float(np.dot(seed, leaving))) < math.cos(config.THETA_TOL):
            raise InitialMismatch(
                "initial unit is not parallel to the outgoing direction"
            )

    x = sampled.values[:, 0]
    y = np.einsum("nd,nd->n", sampled.values[:, 1:], units)
    z = x + 1j * y
    dphi = argument_steps(z, sampled.params)
    arg = np.empty(len(z))
    arg[0] = arg0
    arg[1:] = arg0 + np.cumsum(dphi)

    # a copy a period away that misses the grid is met nowhere on it
    lo, hi, key = at_grid(rep, a, b)
    meet = (hi >= a) & (lo <= b)
    lo, hi, key = lo[meet], hi[meet], key[meet]
    # contacts without usable direction limits only admit zero argument;
    # one at either end of the grid is met from one side only, and needs
    # only the limit on that side
    bad = np.array([c.kind in BAD_KINDS for c in rep.contacts] + [False] * len(rep.runs), bool)
    for t, c in zip(lo[bad[key]].tolist(), [rep.contacts[k] for k in key[bad[key]].tolist()]):
        limit = c.right_dir if t == a else c.left_dir if t == b else None
        if limit is None and int(round(arg[np.searchsorted(sampled.params, t)] / math.pi)) != 0:
            return units, arg, (t, c.kind), (lo, hi)
    return units, arg, None, (lo, hi)


def lift_path(spec: PathSpec, k0: int = 0, initial_unit=None,
              directives: tuple = ()) -> LiftResult:
    """Continuous logarithm of a path starting on branch k0.

    A closed path is read as closed, as analyze_loop reads it.  Where
    lift_grid finds a failing contact the result reports it, naming its
    kind, rather than raising; unusable inputs raise.
    """
    sampled, rep, sampling = obstruct_path(spec)
    units, arg, fail, spans = lift_grid(sampled, rep, k0, initial_unit, directives)
    if fail is not None:
        return LiftResult("fails_at", t_fail=fail[0], reason=fail[1], sampling=sampling)

    values = np.empty_like(sampled.values)
    values[:, 0] = np.log(sampled.mags)
    values[:, 1:] = units * arg[:, None]

    lift = LogLift(
        params=sampled.params,
        values=values,
        arg=arg,
        units=units,
        k0=k0,
        branch_trace=_branch_trace(sampled, spans, arg),
    )
    closed_lift = None
    if spec.closed:
        # log values: a factor lambda shifts both ends by log lambda
        closed_lift = float(np.linalg.norm(values[-1] - values[0])) <= config.TOL_LIFT
    return LiftResult(
        status="ok", lift=lift, closed_lift=closed_lift, sampling=sampling
    )
