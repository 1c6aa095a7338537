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

from .companion import Shadow, argument_steps, canonical_form, unit_field, whole_turns
from .errors import (
    AllRealLoop,
    HypothesisViolated,
    NotApplicable,
    NotLiftable,
    TwistedLoop,
)
from .lifting import lift_path
from .obstruction import (
    BAD_KINDS,
    FLIP,
    ObstructionReport,
    alternating_sum,
    find_obstructions,
    run_kinds,
)
from .pathkit import (
    PathSpec,
    rotate_basepoint,
    sample_path,
)


def reduce_signs(signs) -> list:
    """Cancel adjacent equal pairs until the sequence alternates."""
    stack = []
    for s in signs:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return stack


def flips_of(rep: ObstructionReport, directives=()):
    """Flip positions and signs in traversal order, the wrap flip last,
    with the kinds of real runs resolved by directive.  A contact in
    BAD_KINDS, the wrap contact included, raises HypothesisViolated."""
    items = [(c.t, c.sign, c.kind, c.wrap) for c in rep.contacts]
    items += [(r.t0, r.sign, kind, r.wrap)
              for r, kind in zip(rep.runs, run_kinds(rep, directives))]
    out = []
    for t, sign, kind, wrap in sorted(items, key=lambda it: (it[3], it[0])):
        if kind in BAD_KINDS:
            raise HypothesisViolated(
                f"signature undefined: contact of kind {kind} at t={t}"
            )
        if kind == FLIP:
            out.append((t, sign, wrap))
    return out


def signature(rep: ObstructionReport, directives=()) -> int:
    """Alternating flip-sign sum, without any flip at the traversal end."""
    return alternating_sum([s for _t, s, wrap in flips_of(rep, directives) if not wrap])


def circular_signature(rep: ObstructionReport, directives=()) -> int:
    """Alternating flip-sign sum including a flip at the loop basepoint."""
    return alternating_sum([s for _t, s, _w in flips_of(rep, directives)])


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
    flips: tuple
    provenance: dict

    def to_json(self) -> dict:
        return {
            "twisted": self.twisted,
            "signature": self.signature,
            "circular_signature": self.circular_signature,
            "winding": self.winding,
            "shadow_winding": self.shadow_winding,
            "flips": [
                {"t": t, "sign": s, "wrap": w} for t, s, w in self.flips
            ],
            "provenance": self.provenance,
        }


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
    sampled, sampling = sample_path(spec)
    rep = find_obstructions(sampled, spec)

    # one flip pass: the signature leaves out the flip at the basepoint
    try:
        flips = tuple(flips_of(rep, directives))
        sig = alternating_sum([s for _t, s, wrap in flips if not wrap])
        csig = alternating_sum([s for _t, s, _w in flips])
    except HypothesisViolated:
        sig = csig = None
        flips = ()

    prov = {
        "sampling": sampling,
        "directives": list(directives),
    }

    companion_ok = all(c.kind not in BAD_KINDS for c in rep.contacts)
    if sampled.real.all():
        raise AllRealLoop("loop lies in the real axis")
    if not companion_ok:
        return WindingResult(None, sig, csig, None, None, flips, prov)

    i_star = int(np.argmax(sampled.ims))
    t_star = float(sampled.params[i_star])
    rot_sampled = _reroot(sampled, i_star, spec.b - spec.a)
    units = unit_field(rot_sampled, rep, directives)
    twisted = float(np.dot(units[0], units[-1])) < 0.0
    prov["basepoint"] = t_star

    winding = sw = None
    if not twisted:
        shadow = canonical_form(rot_sampled, units)
        sw = shadow_winding(shadow)
        winding = abs(sw)
    return WindingResult(twisted, sig, csig, winding, sw, flips, prov)


def _reroot(sampled, i_star, period):
    """Sample grid of a loop re-rooted at sample i_star.

    The grid runs one period on from params[i_star] without the seam
    sample at a, so both ends hold the same value, and its crossing
    brackets are the same intervals, re-indexed.  The loop's report is
    not rewritten: unit_field reads a closed report's runs modulo the
    period.
    """
    params, values = sampled.params, sampled.values
    return replace(
        sampled,
        params=np.concatenate([params[i_star:], params[1:i_star + 1] + period]),
        values=np.concatenate([values[i_star:], values[1:i_star + 1]]),
        brackets=np.sort((sampled.brackets - i_star) % (len(params) - 1)),
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
    """Net change of the argument over one traversal from a basepoint,
    in whole turns."""
    rot = rotate_basepoint(spec, basepoint)
    res = lift_path(rot, k0=0, initial_unit=initial_unit, directives=directives)
    if res.status != "ok":
        raise NotLiftable(res.t_fail, res.reason)
    change = float(res.lift.arg[-1]) - float(res.lift.arg[0])
    return whole_turns(change, "argument change")


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
