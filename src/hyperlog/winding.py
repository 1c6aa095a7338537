"""Signatures, twistedness and winding numbers of loops.

The signature is the alternating sum of signs of the path values at its
flips; the circular version also counts a flip at the loop's basepoint.
A loop with a companion is twisted when the companion lift comes back
opposite to how it started; only untwisted loops have a well defined
winding number, which is checked against a direct planar winding count
of the shadow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import config
from .companion import Shadow, argument_steps, canonical_form, unit_field, whole_turns
from .errors import (AllRealLoop, EndpointMismatch, HypothesisViolated, NotApplicable,
                     NotLiftable, OutOfDomain, TwistedLoop)
from .lifting import lift_grid
from .obstruction import (
    BAD_KINDS,
    FLIP,
    ObstructionReport,
    alternating_sum,
    obstruct_path,
    run_kinds,
)
from .pathkit import PathSpec, SampledPath


@dataclass(frozen=True)
class Flip:
    """A flip of a loop: where it lies, the sign of its real value, and
    whether it is the loop's wrap item."""

    t: float
    sign: int
    wrap: bool


def _walk(rep: ObstructionReport, directives=()) -> list:
    """The real items of a report as (t, sign, kind, wrap) in traversal
    order, the wrap item last: each contact with its kind, each run with
    its run_kinds kind under the directives."""
    items = [(c.t, c.sign, c.kind, c.wrap) for c in rep.contacts]
    items += [(r.t0, r.sign, kind, r.wrap)
              for r, kind in zip(rep.runs, run_kinds(rep, directives))]
    return sorted(items, key=lambda it: (it[3], it[0]))


def flips_of(rep: ObstructionReport, directives=()) -> list:
    """The Flips of the report's walk (see _walk), in its order.  A
    contact in BAD_KINDS, the wrap contact included, raises
    HypothesisViolated."""
    out = []
    for t, sign, kind, wrap in _walk(rep, directives):
        if kind in BAD_KINDS:
            raise HypothesisViolated(
                f"signature undefined: contact of kind {kind} at t={t}"
            )
        if kind == FLIP:
            out.append(Flip(t, sign, wrap))
    return out


def closed_nontame_liftable(spec: PathSpec) -> bool:
    """Whether a closed path whose only bad contacts sit on the positive
    reals admits a closed continuous logarithm.

    The criterion is that the signature of every piece between
    consecutive bad contacts lies in {0, -1}.  The loop is read as
    signature and lift_path read it under the default companion, runs
    bouncing: its walk (see _walk), taken as a cycle from its first bad
    contact and cut at each bad contact.  Bad contacts off the positive
    real axis violate the hypotheses, as does a path with no bad contact
    at all (use lift_path for those).
    """
    if not spec.closed:
        raise HypothesisViolated("the criterion applies to closed paths")
    walk = _walk(obstruct_path(spec)[1])
    bad = [k for k, (_t, _s, kind, _w) in enumerate(walk) if kind in BAD_KINDS]
    if not bad:
        raise HypothesisViolated("no bad contact; the path is tame enough")
    if any(sign < 0 for _t, sign, kind, _w in walk if kind in BAD_KINDS):
        raise HypothesisViolated("bad contact away from the positive reals")
    pieces = [[]]
    for _t, sign, kind, _w in walk[bad[0] + 1:] + walk[:bad[0]]:
        if kind in BAD_KINDS:
            pieces.append([])
        elif kind == FLIP:
            pieces[-1].append(sign)
    return all(alternating_sum(signs) in (0, -1) for signs in pieces)


def signature(rep: ObstructionReport, directives=()) -> int:
    """Alternating flip-sign sum, without any flip at the traversal end."""
    return alternating_sum([f.sign for f in flips_of(rep, directives) if not f.wrap])


def circular_signature(rep: ObstructionReport, directives=()) -> int:
    """Alternating flip-sign sum including a flip at the loop basepoint."""
    return alternating_sum([f.sign for f in flips_of(rep, directives)])


def shadow_winding(shadow: Shadow) -> int:
    """Planar winding number of a closed shadow around the origin."""
    z = shadow.x + 1j * shadow.y
    if np.any(np.abs(z) == 0.0):
        raise HypothesisViolated("shadow passes through the origin")
    dphi = argument_steps(z, shadow.params)
    return whole_turns(float(np.sum(dphi)), "shadow winding")


@dataclass(frozen=True)
class WindingResult:
    twisted: bool | None
    signature: int | None
    circular_signature: int | None
    winding: int | None
    shadow_winding: int | None
    flips: tuple  # of Flip, in traversal order
    provenance: dict


def analyze_loop(spec: PathSpec, directives: tuple = ()) -> WindingResult:
    """Full loop analysis: signatures, twistedness, winding.

    Twistedness and the winding number are computed after re-rooting the
    loop at its sample farthest from the real axis, so that the
    companion lift starts and ends at an honest direction; re-rooting is
    a cyclic shift of the one sample grid (see _reroot), read with the
    loop's own report.
    Signatures are reported in the loop's own parameterisation.
    """
    if not spec.closed:
        raise HypothesisViolated("winding analysis needs a closed path")
    sampled, rep, sampling = obstruct_path(spec)

    # one flip pass, which raises exactly when a contact has no direction
    # limits and so the loop no companion
    try:
        flips = tuple(flips_of(rep, directives))
    except HypothesisViolated:
        flips = None

    prov = {
        "sampling": sampling,
        "directives": list(directives),
    }

    if sampled.real.all():
        raise AllRealLoop("loop lies in the real axis")
    if flips is None:
        return WindingResult(None, None, None, None, None, (), prov)
    # the signature leaves out the flip at the basepoint
    sig = alternating_sum([f.sign for f in flips if not f.wrap])
    csig = alternating_sum([f.sign for f in flips])

    t_star = float(sampled.params[np.argmax(sampled.ims)])
    rot_sampled = _reroot(sampled, spec, t_star)
    units = unit_field(rot_sampled, rep, directives)
    twisted = float(np.dot(units[0], units[-1])) < 0.0
    prov["basepoint"] = t_star

    winding = sw = None
    if not twisted:
        shadow = canonical_form(rot_sampled, units)
        sw = shadow_winding(shadow)
        winding = abs(sw)
    return WindingResult(twisted, sig, csig, winding, sw, flips, prov)


def _reroot(sampled: SampledPath, spec: PathSpec, t: float) -> SampledPath:
    """Sample grid of the loop spec re-rooted at parameter t.

    The grid runs one period on from t without the seam sample at a, so
    both ends hold the same value; at a or b it is the grid itself.  t is
    the nearest node within PARAM_SAME of it, else a new node, at the
    cost of one path call.  The loop's report is read on the new grid
    modulo the period (see companion.at_grid).  A t that is not a number
    within [a, b] raises OutOfDomain, and an open path EndpointMismatch.
    """
    if not spec.closed:
        raise EndpointMismatch("only closed paths can be re-rooted")
    if not spec.a <= t <= spec.b:
        raise OutOfDomain(f"basepoint {t!r} outside [{spec.a}, {spec.b}]")
    params, values = sampled.params, sampled.values
    period = spec.b - spec.a
    i = int(np.argmin(np.abs(params - t)))
    if abs(params[i] - t) > config.PARAM_SAME * period:
        i = int(np.searchsorted(params, t))
        params, values = np.insert(params, i, t), np.insert(values, i, spec.values([t]), axis=0)
    i %= len(params) - 1
    return replace(
        sampled,
        params=np.concatenate([params[i:], params[1:i + 1] + period]),
        values=np.concatenate([values[i:], values[1:i + 1]]),
    )


def is_twisted(spec: PathSpec, directives: tuple = ()) -> bool:
    """Whether the companion lift of a loop reverses over one traversal."""
    res = analyze_loop(spec, directives)
    if res.twisted is None:
        raise HypothesisViolated("loop has no companion")
    return res.twisted


def winding_number(spec: PathSpec, directives: tuple = ()) -> int:
    """Winding number of an untwisted loop; twisted loops raise."""
    res = analyze_loop(spec, directives)
    if res.twisted is None:
        raise HypothesisViolated("loop has no companion")
    if res.twisted:
        raise TwistedLoop("winding number is undefined for a twisted loop")
    return res.winding


def branch_change_report(
    spec: PathSpec,
    basepoint: float,
    initial_unit=None,
    directives: tuple = (),
) -> int:
    """Net change of the argument over one traversal of a loop from a
    basepoint, in whole turns: the loop's grid re-rooted there (see
    _reroot) lifted on branch 0 with the loop's own report (see
    lifting.lift_grid), so directives index the loop's axis intervals as
    in analyze_loop.  A lift through a contact without the direction
    limit it needs raises NotLiftable at its position on that grid.
    """
    sampled, rep, _sampling = obstruct_path(spec)
    grid = _reroot(sampled, spec, basepoint)
    _units, arg, fail, _spans = lift_grid(grid, rep, 0, initial_unit, directives)
    if fail is not None:
        raise NotLiftable(*fail)
    return whole_turns(float(arg[-1]) - float(arg[0]), "argument change")


def c_homotopy_equivalent(r1: WindingResult, r2: WindingResult) -> bool:
    """Whether two analyzed loops with companions can be deformed into
    each other together with their companions."""
    for r in (r1, r2):
        if r.twisted is None:
            raise NotApplicable("loop has no companion")
        if r.twisted:
            raise NotApplicable("twisted loops are out of scope here")
        if r.winding is None:
            raise NotApplicable("winding number unavailable")
    return r1.winding == r2.winding
