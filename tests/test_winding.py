"""Signatures, twistedness and winding numbers."""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlog as hl
from hyperlog import config
from hyperlog.companion import stretch_items, whole_turns
from hyperlog.errors import (
    AllRealLoop,
    EndpointMismatch,
    HypothesisViolated,
    NotApplicable,
    NotLiftable,
    OutOfDomain,
    StepTooLarge,
    TwistedLoop,
    ZeroOnPath,
)
from hyperlog.pathkit import Line, sample_path
from hyperlog.winding import alternating_sum

from test_acceptance import reduce_signs, single_slice_loop
from test_batched_eval import CORPUS, Meter, counted

PI = math.pi


def test_alternating_sum_examples():
    # l counts from one: sum of sign_l (-1)^l
    assert alternating_sum([1]) == -1
    assert alternating_sum([1, -1]) == -2
    assert alternating_sum([1, 1]) == 0
    assert alternating_sum([-1, 1, -1]) == 3


@given(st.lists(st.sampled_from([1, -1]), max_size=40))
@settings(max_examples=200, deadline=None)
def test_cancellation_reduction_preserves_the_sum(signs):
    reduced = reduce_signs(signs)
    assert alternating_sum(signs) == alternating_sum(reduced)
    # a reduced sequence alternates, so the sum collapses to a product
    if reduced:
        assert alternating_sum(reduced) == -len(reduced) * reduced[0]


def test_circle_signatures():
    spec = hl.demo("slice_circle(i,1,1)").path
    sp = hl.sample_adaptive(spec)
    rep = hl.find_obstructions(sp, spec)
    assert hl.signature(rep) == 1
    assert hl.circular_signature(rep) == 2


@pytest.mark.parametrize("name", ["rocket_neg", "rocket_pos"])
def test_a_not_tame_wrap_contact_leaves_both_signatures_undefined(name):
    # the rockets' one contact is the wrap contact, at the basepoint, and
    # it has no direction limit: neither signature is defined, as in
    # analyze_loop
    spec = hl.demo(name).path
    rep = hl.find_obstructions(sample_path(spec)[0], spec)
    assert [(c.kind, c.wrap) for c in rep.contacts] == [(hl.obstruction.NOT_TAME, True)]
    for signature in (hl.signature, hl.circular_signature):
        with pytest.raises(HypothesisViolated):
            signature(rep)
    res = hl.analyze_loop(spec)
    assert (res.signature, res.circular_signature) == (None, None)


@pytest.mark.parametrize("angle_a", [s * d for s in (1, -1)
                                     for d in (1e-8, 1e-7, 1e-6, 1e-5, 3e-5)])
@pytest.mark.parametrize("axis", ["i", "j", "k"])
def test_a_circle_starting_just_off_its_contact_winds_once(axis, angle_a):
    # the contact at +1 lies within a few 1e-5 of an end of the domain,
    # yet not within the seam's tolerance: it is an interior flip
    unit = {"i": (0.0, 1.0, 0.0, 0.0), "j": (0.0, 0.0, 1.0, 0.0),
            "k": (0.0, 0.0, 0.0, 1.0)}[axis]
    arc = hl.pathkit.SliceArc(0.0, 2 * PI, unit, angle_a, angle_a + 2 * PI)
    res = hl.analyze_loop(hl.PathSpec(0.0, 2 * PI, (arc,), closed=True))
    assert (res.twisted, res.winding, abs(res.circular_signature)) == (False, 1, 2)


def test_multi_turn_circle():
    res = hl.analyze_loop(hl.demo("slice_circle(i,1,3)").path)
    assert res.twisted is False
    assert res.winding == 3
    assert res.circular_signature == 6


def test_three_exp_windings_and_signatures():
    case = hl.demo("three_exp")
    bounce = hl.analyze_loop(case.path, case.directives["constant_i"])
    flip = hl.analyze_loop(case.path, case.directives["J_path"])
    assert (bounce.twisted, bounce.winding) == (False, 0)
    assert (flip.twisted, flip.winding) == (False, 1)
    assert bounce.circular_signature == 0
    assert flip.circular_signature == 2
    assert hl.c_homotopy_equivalent(bounce, flip) is False
    assert hl.c_homotopy_equivalent(bounce, bounce) is True


def test_lambda_loop_is_twisted():
    spec = hl.demo("lambda_loop").path
    assert hl.is_twisted(spec) is True
    with pytest.raises(TwistedLoop):
        hl.winding_number(spec)


def test_an_untwisted_loop_has_its_winding_number():
    assert hl.winding_number(hl.demo("slice_circle(i,1,3)").path) == 3


def test_c_homotopy_needs_untwisted_loops():
    twisted = hl.analyze_loop(hl.demo("lambda_loop").path)
    plain = hl.analyze_loop(hl.demo("slice_circle(i,1,1)").path)
    with pytest.raises(NotApplicable):
        hl.c_homotopy_equivalent(twisted, plain)


def test_branch_changes_lambda():
    case = hl.demo("lambda_loop")
    got = hl.branch_change_report(case.path, case.basepoints["plus_one"])
    assert got == 1
    got = hl.branch_change_report(
        case.path,
        case.basepoints["minus_one"],
        initial_unit=np.array(case.initial_units["minus_one"])[1:],
    )
    assert got == 0


def test_branch_change_through_a_bad_contact_is_not_liftable():
    # the direction of rocket_neg spins without limit at its contact with
    # -1 at t = 0; re-rooted at 0.5, the domain is [0.5, 1.5] and the
    # contact lies at t = 1.0
    with pytest.raises(NotLiftable) as e:
        hl.branch_change_report(hl.demo("rocket_neg").path, 0.5, initial_unit=(1.0, 0.0, 0.0))
    assert (e.value.kind, e.value.t) == ("not_tame", 1.0)


def test_branch_changes_gamma_copies():
    case = hl.demo("gamma1m_gamma2(3)")
    for copy, expected in case.expected["branch_change"].items():
        got = hl.branch_change_report(
            case.path,
            case.basepoints[copy],
            initial_unit=np.array(case.initial_units[copy])[1:],
        )
        assert got == expected, copy


@pytest.mark.parametrize("bp, want", [
    (2 * PI, {("flip", "bounce"): 0, ("bounce", "flip"): -1}),
    (0.0, {("flip", "bounce"): 1, ("bounce", "flip"): 0}),
    (5 * PI, {("flip", "bounce"): 1, ("bounce", "flip"): 0}),
])
def test_branch_change_directives_index_the_loops_own_intervals(bp, want):
    # three_exp has the axis intervals of its runs [pi, 3 pi] and
    # [4 pi, 6 pi], in that order; from a basepoint inside the first run
    # the first directive still names it, as in analyze_loop, and not the
    # interval a path rebuilt from that basepoint would list first
    spec = hl.demo("three_exp").path
    for dirs, turns in want.items():
        assert hl.branch_change_report(spec, bp, (1.0, 0.0, 0.0), dirs) == turns, dirs


def rocket_loops():
    """(loops that meet a contact at -1, loops that meet one at +1), the
    contact lying at the seam t = a = 0 of the domain [0, 1]."""
    neg, pos = hl.demo("rocket_neg").path, hl.demo("rocket_pos").path
    return ([neg, hl.reverse(neg), hl.reflect_negconj(pos)],
            [pos, hl.reverse(pos), hl.reflect_negconj(neg)])


@pytest.mark.parametrize("f", [0.13, 0.37, 0.5, 0.71])
def test_branch_change_through_a_rocket_contact(f):
    # from any basepoint the lift passes through the loop's seam contact,
    # at parameter 1.0 of the re-rooted grid [bp, bp + 1]; its direction
    # spins without limit, so only a zero argument, at +1, continues
    at_minus_one, at_plus_one = rocket_loops()
    for spec in at_minus_one:
        with pytest.raises(NotLiftable) as e:
            hl.branch_change_report(spec, f)
        assert e.value.kind == "not_tame"
        assert e.value.t == pytest.approx(1.0, abs=1e-12)
    for spec in at_plus_one:
        assert hl.branch_change_report(spec, f) == 0


@pytest.mark.parametrize("f, bp", [
    (None, 0.87), (None, 0.24), (0.13, 0.87),
    pytest.param(0.37, 0.87, marks=pytest.mark.xfail(
        strict=True, raises=HypothesisViolated, reason="ROADMAP item 6: the fallback "
        "grid of the 0.37 copy gives an argument change of -0.052 turns")),
])
def test_rocket_pos_changes_no_branch_from_any_copy(f, bp):
    # rocket_pos and its copies rotated to f are one loop, which lifts
    # through its contact at +1 with zero argument from every point
    pos = hl.demo("rocket_pos").path
    loop = pos if f is None else hl.rotate_basepoint(pos, f)
    assert hl.branch_change_report(loop, bp) == 0


@pytest.mark.parametrize("name", ["rocket_neg", "rocket_pos"])
@pytest.mark.parametrize("f", [0.13, 0.37])
def test_the_fallback_grid_holds_the_join_of_a_rotated_rocket(name, f):
    # rotated to f, a rocket meets its not-tame contact at the join
    # t = 1.0 of [f, f + 1], which is no end of the fallback grid's equal
    # intervals; the grid holds the joins, so the report has the contact,
    # and at -1 the lift fails there, as from the rocket's own basepoint
    spec = hl.rotate_basepoint(hl.demo(name).path, f)
    sampled, sampling = sample_path(spec)
    assert sampling == "uniform_fallback"
    (contact,) = hl.find_obstructions(sampled, spec).contacts
    assert contact.kind == "not_tame"
    assert contact.t == pytest.approx(1.0, abs=1e-12)
    res = hl.lift_path(spec)
    if name == "rocket_pos":
        assert (res.status, res.closed_lift) == ("ok", True)
        return
    assert (res.status, res.reason) == ("fails_at", "not_tame")
    assert res.t_fail == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotLiftable) as e:
        hl.branch_change_report(spec, f + 0.5)
    assert e.value.kind == "not_tame"
    assert e.value.t == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name, bps", [
    ("lambda_loop", None),
    ("gamma1m_gamma2(3)", None),
    ("three_exp", (2 * PI, 3.7, 5 * PI)),
    ("slice_circle(j,2,20)", (0.0, 1.0, 100.0)),
])
def test_branch_change_report_samples_and_obstructs_once(name, bps):
    # the one sample-and-obstruct pass, and one more call exactly when the
    # basepoint is no node of the grid
    case = hl.demo(name)
    meter = Meter()
    spec = counted(case.path, meter)
    meter.calls = meter.points = 0  # the closure checked by the constructor
    sampled, _ = sample_path(spec)
    hl.find_obstructions(sampled, spec)
    one_pass = (meter.calls, meter.points)
    units = {key: np.array(u)[1:] for key, u in case.initial_units.items()}
    if bps is None:
        bps = case.basepoints.values()
        seeds = [units.get(key) for key in case.basepoints]
    else:
        seeds = [(1.0, 0.0, 0.0) if name == "three_exp" else None] * len(bps)
    for bp, seed in zip(bps, seeds):
        new_node = np.abs(sampled.params - bp).min() > config.PARAM_SAME * (spec.b - spec.a)
        meter.calls = meter.points = 0
        hl.branch_change_report(spec, bp, seed)
        assert (meter.calls, meter.points) == (one_pass[0] + new_node, one_pass[1] + new_node), bp


def outcome(f, *args):
    """What a call gives: its value, or the type and text of its error."""
    try:
        return f(*args)
    except hl.errors.HyperlogError as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("name", [n for n in CORPUS if hl.demo(n).path.closed])
def test_branch_change_from_a_agrees_with_the_lift(name):
    # from the basepoint a the report's answer is the whole turns of the
    # lift's argument change, a lift that fails is not liftable there, and
    # an error of the lift is the report's
    case = hl.demo(name)
    spec = case.path
    variants = [spec, hl.reverse(spec), hl.reflect_negconj(spec)]
    variants += [hl.rotate_basepoint(spec, spec.a + f * (spec.b - spec.a))
                 for f in (0.13, 0.37, 0.71)]
    for loop in variants:
        sampled, _ = sample_path(loop)
        rep = hl.find_obstructions(sampled, loop)
        start = leaving(sampled, rep) if sampled.real[0] else None
        for dirs in [(), *case.directives.values()]:
            res = outcome(hl.lift_path, loop, 0, start, dirs)
            got = outcome(hl.branch_change_report, loop, loop.a, start, dirs)
            if isinstance(res, tuple):
                assert got == res, dirs
            elif res.status == "ok":
                change = float(res.lift.arg[-1] - res.lift.arg[0])
                assert got == outcome(whole_turns, change, "argument change"), dirs
            else:
                assert got == ("NotLiftable", str(NotLiftable(res.t_fail, res.reason))), dirs


@pytest.mark.parametrize("name", ["lambda_loop", "gamma1m_gamma2(8)", "meridians",
                                  "slice_circle(j,2,20)"])
def test_a_basepoint_inside_a_crossing_bracket_becomes_a_node(name):
    spec = hl.demo(name).path
    period = spec.b - spec.a
    sp, _ = sample_path(spec)
    for k in sp.brackets.tolist():
        t = 0.5 * (sp.params[k] + sp.params[k + 1])
        grid = hl.winding._reroot(sp, spec, t)
        assert len(grid.params) == len(sp.params) + 1
        assert grid.params[0] == t and grid.params[-1] == t + period
        assert grid.values[0].tobytes() == spec.values([t])[0].tobytes()


@pytest.mark.parametrize("bp", [-0.1, 6 * PI + 0.1, math.nan, math.inf])
def test_branch_change_basepoint_outside_the_domain(bp):
    with pytest.raises(OutOfDomain):
        hl.branch_change_report(hl.demo("three_exp").path, bp)


def test_branch_change_needs_a_loop():
    spec = hl.demo("sigma_arc").path
    with pytest.raises(EndpointMismatch):
        hl.branch_change_report(spec, 0.5 * (spec.a + spec.b))


def test_shadow_winding_direct():
    t = np.linspace(0.0, 2 * PI, 400)
    shadow = hl.companion.Shadow(t, np.cos(3 * t), np.sin(3 * t))
    assert hl.shadow_winding(shadow) == 3
    assert hl.shadow_winding(shadow.conjugate()) == -3


def test_shadow_winding_needs_a_closed_shadow():
    t = np.linspace(0.0, PI, 65)
    with pytest.raises(HypothesisViolated, match="is not a whole number of turns"):
        hl.shadow_winding(hl.companion.Shadow(t, np.cos(t), np.sin(t)))


def test_shadow_winding_rejects_a_half_turn_step():
    # from 1 to -1 in one step: either way round would do
    t = np.array([0.0, 0.5, 1.0])
    shadow = hl.companion.Shadow(t, np.array([1.0, -1.0, 1.0]), np.zeros(3))
    with pytest.raises(StepTooLarge, match=r"argument step 3\.142 rad near t=0\.0"):
        hl.shadow_winding(shadow)


def test_shadow_winding_rejects_the_origin():
    t = np.linspace(0.0, 1.0, 3)
    shadow = hl.companion.Shadow(t, np.array([1.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.0]))
    with pytest.raises(HypothesisViolated, match="shadow passes through the origin"):
        hl.shadow_winding(shadow)


def test_all_real_loop_rejected():
    seg = hl.pathkit.TrigFn
    line = hl.pathkit.Line(
        0.0, 1.0, (1.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0)
    )
    back = hl.pathkit.Line(
        1.0, 2.0, (2.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)
    )
    spec = hl.PathSpec(0.0, 2.0, (line, back), closed=True)
    with pytest.raises(AllRealLoop):
        hl.analyze_loop(spec)


@pytest.mark.parametrize("s", [1.0, 100.0])
def test_all_real_loop_at_every_scale(s):
    # |Im| = 5e-10 s is real at every scale: it is at most 1e-9 |q|
    x_fn = hl.pathkit.TrigFn(s, ((1, 0.1 * s),), ())
    y_fn = hl.pathkit.PolyFn((5e-10 * s,))
    seg = hl.pathkit.SliceCurve(0.0, 2 * PI, (0.0, 1.0, 0.0, 0.0), x_fn, y_fn)
    with pytest.raises(AllRealLoop):
        hl.analyze_loop(hl.PathSpec(0.0, 2 * PI, (seg,), closed=True))


def test_open_path_has_no_winding():
    with pytest.raises(HypothesisViolated):
        hl.analyze_loop(hl.demo("sigma_arc").path)


def test_loop_without_companion_reports_none():
    res = hl.analyze_loop(hl.demo("rocket_neg").path)
    assert res.twisted is None and res.winding is None


def test_twisted_loop_shadow_endpoints_are_conjugate():
    spec = hl.rotate_basepoint(hl.demo("lambda_loop").path, 0.3)
    sp = hl.sample_adaptive(spec)
    rep = hl.find_obstructions(sp, spec)
    units = hl.unit_field(sp, rep)
    shadow = hl.canonical_form(sp, units)
    assert shadow.x[-1] == pytest.approx(shadow.x[0], abs=1e-9)
    assert shadow.y[-1] == pytest.approx(-shadow.y[0], abs=1e-9)
    assert abs(shadow.y[0]) > 0.1


def test_untwisted_loop_shadows_close_up():
    spec = hl.rotate_basepoint(hl.demo("slice_circle(i,2,1)").path, 1.0)
    sp = hl.sample_adaptive(spec)
    rep = hl.find_obstructions(sp, spec)
    for sign in (1.0, -1.0):
        seed = np.array([sign, 0.0, 0.0])
        units = hl.unit_field(sp, rep, seed=seed)
        shadow = hl.canonical_form(sp, units)
        assert shadow.x[-1] == pytest.approx(shadow.x[0], abs=1e-9)
        assert shadow.y[-1] == pytest.approx(shadow.y[0], abs=1e-9)


# ---------------------------------------------------------------------------
# re-rooting: analyze_loop shifts its one sample grid; the reference below
# builds the re-rooted path, samples it and finds its obstructions again


def reference_transport_directives(spec, rep, directives, rot, rep_rot):
    """Per-interval directives re-keyed to the intervals of rep_rot."""
    if not directives:
        return ()
    period = spec.b - spec.a
    tol = config.PARAM_SAME * period
    out = [None] * len(rep_rot.intervals)
    for m, iv in enumerate(rep.intervals):
        d = directives[m] if m < len(directives) else None
        if d is None:
            continue
        mid = 0.5 * (iv.t0 + iv.t1)
        if mid > spec.b:
            mid -= period
        mid_rot = mid if mid >= rot.a else mid + period
        for mm, ivr in enumerate(rep_rot.intervals):
            if ivr.t0 - tol <= mid_rot <= ivr.t1 + tol:
                out[mm] = d
                break
    return tuple(out)


def reference_loop_answers(spec, directives=()):
    """(twisted, winding, shadow_winding, flips) by re-sampling the loop
    re-rooted at its sample farthest from the real axis."""
    sampled, _ = sample_path(spec)
    rep = hl.find_obstructions(sampled, spec)
    try:
        flips = tuple(hl.winding.flips_of(rep, directives))
    except HypothesisViolated:
        flips = ()
    if any(c.kind in hl.obstruction.BAD_KINDS for c in rep.contacts):
        return None, None, None, flips
    im = np.linalg.norm(sampled.values[:, 1:], axis=1)
    rot = hl.rotate_basepoint(spec, float(sampled.params[int(np.argmax(im))]))
    rot_sampled, _ = sample_path(rot)
    rep_rot = hl.find_obstructions(rot_sampled, rot)
    dirs = reference_transport_directives(spec, rep, directives, rot, rep_rot)
    units = hl.unit_field(rot_sampled, rep_rot, dirs)
    if float(np.dot(units[0], units[-1])) < 0.0:
        return True, None, None, flips
    sw = hl.shadow_winding(hl.canonical_form(rot_sampled, units))
    return False, abs(sw), sw, flips


def loop_answers(spec, directives=()):
    res = hl.analyze_loop(spec, directives)
    return res.twisted, res.winding, res.shadow_winding, res.flips


CLOSED_CORPUS = [
    "rocket_neg",
    "rocket_pos",
    "lambda_loop",
    "three_exp",
    "gamma1m_gamma2(1)",
    "gamma1m_gamma2(3)",
    "gamma1m_gamma2(8)",
    "meridians",
    "slice_circle(i,1,1)",
    "slice_circle(j,2,20)",
    "slice_circle(k,0.001,2)",
]


@pytest.mark.parametrize("name", CLOSED_CORPUS)
def test_rerooting_matches_resampling_on_the_corpus(name):
    case = hl.demo(name)
    spec = case.path
    variants = {
        "plain": spec,
        "reverse": hl.reverse(spec),
        "reflect_negconj": hl.reflect_negconj(spec),
    }
    for f in (0.13, 0.37, 0.81):
        variants[f"rotate_basepoint({f})"] = hl.rotate_basepoint(
            spec, spec.a + f * (spec.b - spec.a))
    companions = {"default": (), **case.directives}
    for kind, loop in variants.items():
        for comp, dirs in companions.items():
            assert loop_answers(loop, dirs) == reference_loop_answers(loop, dirs), (
                f"{name}/{kind}/{comp}")


def test_rerooting_matches_resampling_inside_real_runs():
    # basepoints inside a real run give reports with a wrap run
    spec = hl.demo("three_exp").path
    rep = hl.find_obstructions(sample_path(spec)[0], spec)
    period = spec.b - spec.a
    assert rep.runs
    for run in rep.runs:
        for f in (0.25, 0.5, 0.75):
            t = run.t0 + f * (run.t1 - run.t0)
            rot = hl.rotate_basepoint(spec, t - period if t > spec.b else t)
            rot_rep = hl.find_obstructions(sample_path(rot)[0], rot)
            assert any(r.wrap for r in rot_rep.runs)
            n = len(rot_rep.intervals)
            for dirs in itertools.product((None, "flip", "bounce"), repeat=n):
                assert loop_answers(rot, dirs) == reference_loop_answers(rot, dirs), (
                    f"run at {run.t0}, f={f}, {dirs}")


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_rerooting_matches_resampling_on_random_loops(seed, frac):
    spec, _winding, _misses = single_slice_loop(np.random.default_rng(seed))
    spec = hl.rotate_basepoint(spec, spec.a + frac * (spec.b - spec.a))
    assert loop_answers(spec) == reference_loop_answers(spec)


@pytest.mark.parametrize("name", ["slice_circle(j,2,20)", "three_exp"])
def test_analyze_loop_samples_and_obstructs_once(name):
    case = hl.demo(name)
    meter = Meter()
    spec = counted(case.path, meter)
    meter.calls = meter.points = 0  # the closure checked by the constructor
    sampled, _ = sample_path(spec)
    hl.find_obstructions(sampled, spec)
    one_pass = (meter.calls, meter.points)
    for dirs in [(), *case.directives.values()]:
        meter.calls = meter.points = 0
        res = hl.analyze_loop(spec, dirs)
        assert res.winding is not None
        assert (meter.calls, meter.points) == one_pass


def one_reading(spec, meter) -> tuple:
    """(path calls, points) of one obstruct_path of a counted path."""
    meter.calls = meter.points = 0
    hl.obstruct_path(spec)
    return meter.calls, meter.points


@pytest.mark.parametrize("name", CORPUS)
def test_lift_path_reads_its_path_once(name):
    # open and closed alike, failing or not
    path = hl.demo(name).path
    for closed in (True, False) if path.closed else (False,):
        meter = Meter()
        spec = counted(replace(path, closed=closed), meter)
        want = one_reading(spec, meter)
        meter.calls = meter.points = 0
        outcome(hl.lift_path, spec)
        assert (meter.calls, meter.points) == want, closed


@pytest.mark.parametrize("name", [n for n in CORPUS if hl.demo(n).path.closed])
def test_closed_nontame_liftable_reads_its_loop_once(name):
    # whether it answers (rocket_pos, meridians) or refuses the loop
    meter = Meter()
    spec = counted(hl.demo(name).path, meter)
    want = one_reading(spec, meter)
    meter.calls = meter.points = 0
    outcome(hl.closed_nontame_liftable, spec)
    assert (meter.calls, meter.points) == want


def test_reroot_is_a_cyclic_shift():
    spec = hl.demo("three_exp").path
    run = hl.find_obstructions(sample_path(spec)[0], spec).runs[0]
    loop = hl.rotate_basepoint(spec, 0.5 * (run.t0 + run.t1))
    sampled, _ = sample_path(loop)
    rep = hl.find_obstructions(sampled, loop)
    assert any(r.wrap for r in rep.runs)
    period = loop.b - loop.a
    i_star = int(np.argmax(np.linalg.norm(sampled.values[:, 1:], axis=1)))
    t_star = sampled.params[i_star]
    grid = hl.winding._reroot(sampled, loop, sampled.params[i_star])
    n = len(sampled.params)
    order = (np.arange(n - 1) + i_star) % (n - 1)
    order = np.append(np.where(order == 0, n - 1, order), i_star)
    assert np.all(np.diff(grid.params) > 0)
    assert grid.params[0] == t_star and grid.params[-1] == t_star + period
    assert grid.values.tobytes() == sampled.values[order].tobytes()


@pytest.mark.parametrize("n", [20, 40, 50, 80, 100, 200])
@pytest.mark.parametrize("axis", ["i", "j"])
def test_crossing_brackets_do_not_alias_many_turns(axis, n):
    # the first grid's intervals span more than half a turn from n = 40
    # on, so three of its nodes can look like one clean crossing; the
    # quarter-turn guard keeps such an interval from becoming a bracket
    res = hl.analyze_loop(hl.demo(f"slice_circle({axis},2,{n})").path)
    assert (res.twisted, res.winding, res.circular_signature) == (False, n, 2 * n)


@pytest.mark.parametrize("n", [
    64,
    pytest.param(128, marks=pytest.mark.xfail(
        strict=True, raises=AllRealLoop,
        reason="every node and midpoint of the first grid is 2: it needs a first "
        "grid whose step no segment period divides")),
    192,
])
@pytest.mark.parametrize("axis", ["i", "j", "k"])
def test_a_grid_in_resonance_with_the_loop_is_not_a_real_run(axis, n):
    # each of the first grid's 64 intervals spans n / 64 whole turns, so
    # every node is 2; at n = 64 and 192 every midpoint is -2, and a real
    # run cannot pass through 0
    spec = hl.demo(f"slice_circle({axis},2,{n})").path
    res = hl.analyze_loop(spec)
    assert (res.twisted, res.winding, res.circular_signature) == (False, n, 2 * n)
    # the lift ends at log 2 + 2 n pi u, u the slice unit
    want = np.zeros(4)
    want[0], want[1 + "ijk".index(axis)] = math.log(2.0), 2.0 * n * PI
    end = hl.lift_path(spec).lift.values[-1]
    assert end == pytest.approx(want, rel=1e-9, abs=1e-9)


def near_miss_loop(eps):
    """Three lines through (1, -1, eps, 0), (1, 1, eps, 0) and (1, 0, 2, 0):
    the direction turns by a half turn within about eps of t = 0.5, and
    the path never comes nearer than eps to the real axis."""
    p0, p1, p2 = (1.0, -1.0, eps, 0.0), (1.0, 1.0, eps, 0.0), (1.0, 0.0, 2.0, 0.0)
    return hl.PathSpec(0.0, 3.0, (Line(0.0, 1.0, p0, p1), Line(1.0, 2.0, p1, p2),
                                  Line(2.0, 3.0, p2, p0)), closed=True)


@pytest.mark.parametrize("eps", [
    1e-2, 1e-4, 1e-6,
    pytest.param(1e-8, marks=pytest.mark.xfail(
        strict=True, reason="the turn reads as a reversal between two samples: the "
        "sampler leaves it as a crossing bracket, or stops halving it at a "
        "millionth of the domain")),
])
def test_a_near_miss_of_the_axis_is_not_a_flip(eps):
    # the companion turns with the direction, so the loop is untwisted;
    # read as a flip, the turn would make it twisted
    spec = near_miss_loop(eps)
    sp = hl.sample_adaptive(spec)
    assert not len(sp.brackets)
    assert not hl.find_obstructions(sp, spec).contacts
    res = hl.analyze_loop(spec)
    assert (res.twisted, res.winding) == (False, 0)


@pytest.mark.xfail(strict=True, reason="sample_adaptive aliases on loops that turn "
                   "many times between the nodes of its initial grid")
def test_many_turn_slice_circle_is_not_aliased():
    # 300 turns about a circle around the origin: 600 flips, winding 300;
    # 200 turns come out right, 300 give 472 contacts and winding 236
    spec = hl.demo("slice_circle(j,2,300)").path
    rep = hl.find_obstructions(hl.sample_adaptive(spec), spec)
    assert len(rep.contacts) == 600
    assert hl.analyze_loop(spec).winding == 300


def leaving(sampled, rep):
    """The direction limit with which a path leaves the axis at a real
    start: the exit limit of the item that holds the grid's first real
    stretch."""
    return stretch_items(sampled, rep)[0][1]


@dataclass(frozen=True)
class Scaled:
    """A segment whose values are those of its inner times lam."""

    ta: float
    tb: float
    inner: object
    lam: float

    def values(self, ts):
        return self.lam * self.inner.values(ts)


def scaled(spec, lam):
    return replace(spec, segments=tuple(Scaled(s.ta, s.tb, s, lam) for s in spec.segments))


SCALED_LOOPS = [
    "lambda_loop", "three_exp", "meridians",
    "gamma1m_gamma2(1)", "gamma1m_gamma2(2)", "gamma1m_gamma2(3)", "gamma1m_gamma2(4)",
    "slice_circle(i,1,1)", "slice_circle(j,2,3)", "slice_circle(k,0.5,2)",
    "slice_circle(i,1,4)",
]


def test_loop_answers_do_not_depend_on_the_scale():
    # a positive real factor moves no value onto or off the real axis,
    # and realness is judged relative to |q|; under a threshold absolute
    # below |q| = 1, 28 of these 66 answers differed
    def answers(spec):
        res = hl.analyze_loop(spec)
        return res.twisted, res.winding, res.signature, res.circular_signature

    for name in SCALED_LOOPS:
        spec = hl.demo(name).path
        want = answers(spec)
        for lam in (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6):
            assert answers(scaled(spec, lam)) == want, (name, lam)


# the corpus paths whose grids and contacts a power-of-two factor must
# leave unchanged
SCALED_CORPUS = list(dict.fromkeys(
    SCALED_LOOPS + ["sigma_arc", "sigma_hat", "rocket_neg", "rocket_pos",
                    "slice_circle(j,2,20)", "gamma1m_gamma2(8)"]))


@pytest.mark.parametrize("name", SCALED_CORPUS)
def test_grids_and_contacts_do_not_depend_on_the_scale(name):
    # a factor 2^k scales every value, norm and |Im| exactly, and every
    # value test is relative to |q|: the sampler takes the same grid and
    # find_obstructions the same contacts, each value lam times as large;
    # with the value tests floored at |q| = 1, 16 of these 136 cases
    # differed, all under lam <= 2^-10
    base = hl.demo(name).path
    for spec in (base, replace(base, closed=False)):
        sampled, label = sample_path(spec)
        rep = hl.find_obstructions(sampled, spec)
        for lam in (2.0 ** -20, 2.0 ** -10, 2.0 ** 10, 2.0 ** 20):
            s = scaled(spec, lam)
            got, got_label = sample_path(s)
            assert got_label == label, (spec.closed, lam)
            assert got.params.tobytes() == sampled.params.tobytes(), (spec.closed, lam)
            got_rep = hl.find_obstructions(got, s)
            assert got_rep.contacts == tuple(
                replace(c, value=lam * c.value) for c in rep.contacts), (spec.closed, lam)
            assert got_rep.runs == rep.runs, (spec.closed, lam)


@dataclass(frozen=True)
class Squeezed:
    """A segment on [lam ta, lam tb] whose value at s is that of its
    inner at s / lam: the inner reparametrised, orientation kept."""

    ta: float
    tb: float
    inner: object
    lam: float

    def values(self, ts):
        return self.inner.values(np.asarray(ts) / self.lam)


def squeezed(spec, lam):
    segs = tuple(Squeezed(lam * s.ta, lam * s.tb, s, lam) for s in spec.segments)
    return hl.PathSpec(lam * spec.a, lam * spec.b, segs, spec.closed)


def test_loop_answers_do_not_depend_on_the_parameter_scale():
    # the parameter tolerances are fractions of the domain's span; with a
    # floor of 1 on the span, 6 of these 18 (loop, companion) pairs
    # changed their answer for some lam
    def answers(spec, directives):
        res = hl.analyze_loop(spec, directives)
        return res.twisted, res.winding, res.signature, res.circular_signature

    for name in dict.fromkeys(CLOSED_CORPUS + SCALED_LOOPS):
        case = hl.demo(name)
        for companion, directives in {"default": (), **case.directives}.items():
            want = answers(case.path, directives)
            for lam in (1e-10, 1e-8, 1e-6, 1e-3, 1e3, 1e6):
                got = answers(squeezed(case.path, lam), directives)
                assert got == want, (name, companion, lam)


def test_a_path_scaled_to_the_realness_threshold_passes_through_zero():
    # the zero test is absolute: |q| <= eps_real
    spec = scaled(hl.demo("slice_circle(i,1,1)").path, 1e-9)
    with pytest.raises(ZeroOnPath):
        hl.analyze_loop(spec)
