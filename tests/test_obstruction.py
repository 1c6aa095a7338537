"""Detection and classification of contacts with the real axis."""

import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperlog as hl
from hyperlog import config, obstruction
from hyperlog.obstruction import (
    BAD_KINDS,
    BOUNCE,
    DIRECTIVES,
    ENDPOINT_TAME,
    FLIP,
    NOT_TAME,
    SEMI_TAME,
    UNRESOLVED,
    Contact,
    RealRun,
    classify_interval,
    classify_point,
    run_kinds,
)
from hyperlog.errors import ZeroOnPath
from hyperlog.pathkit import Line, PathSpec, PolyFn, SliceCurve, sample_path, to_json

from test_acceptance import single_slice_loop
from test_batched_eval import corpus_paths

PI = math.pi


def report_for(name, closed=None):
    case = hl.demo(name)
    spec = case.path
    if closed is not None:
        spec = replace(spec, closed=closed)
    try:
        sp = hl.sample_adaptive(spec)
    except hl.errors.RefinementBudgetExceeded:
        sp = hl.sample_uniform(spec, 4097)
    return hl.find_obstructions(sp, spec)


def contact_at(rep, t, tol=1e-6):
    hits = [c for c in rep.contacts if abs(c.t - t) <= tol]
    assert hits, f"no contact near t={t}: {[c.t for c in rep.contacts]}"
    return hits[0]


def test_classify_point_table():
    i = (1.0, 0.0, 0.0)
    mi = (-1.0, 0.0, 0.0)
    j = (0.0, 1.0, 0.0)
    assert classify_point(i, mi) == FLIP
    assert classify_point(i, i) == BOUNCE
    assert classify_point(i, j) == SEMI_TAME
    assert classify_point(i, None) == NOT_TAME
    assert classify_point(None, None) == NOT_TAME


# paths whose report depends on the realness threshold, with a threshold
# other than the default
EPS_REAL_CASES = [
    ("lambda_loop", 1e-5),
    ("three_exp", 1e-5),
    ("gamma1m_gamma2(3)", 1e-5),
]


@pytest.mark.parametrize("name, eps_real", EPS_REAL_CASES, ids=[
    f"{name}-{eps_real}" for name, eps_real in EPS_REAL_CASES])
def test_tolerances_travel_with_the_sampled_path(name, eps_real):
    # sampled and obstructed under another threshold than the default
    spec = hl.demo(name).path
    tol = config.Tolerances(eps_real)
    token = config.IN_FORCE.set(tol)
    try:
        sampled = sample_path(spec)[0]
        want = to_json(hl.find_obstructions(sampled, spec))
    finally:
        config.IN_FORCE.reset(token)
    assert sampled.tol == tol
    assert want != to_json(hl.find_obstructions(sample_path(spec)[0], spec))
    # the probes after sampling judge realness as the samples were judged
    assert to_json(hl.find_obstructions(sampled, spec)) == want


@pytest.mark.parametrize("eps_real", [1e-9, 1e-7, 1e-5])
def test_a_real_set_at_the_seam_is_one_wrap_contact(eps_real):
    # the real set about the basepoint of this circle, on the axis, runs
    # from 2 pi - eps_real to eps_real; its ends, not its middle, lie
    # within the seam's tolerance of the domain's ends
    spec = hl.demo("slice_circle(i,2,1)").path
    token = config.IN_FORCE.set(config.Tolerances(eps_real))
    try:
        rep = hl.find_obstructions(sample_path(spec)[0], spec)
    finally:
        config.IN_FORCE.reset(token)
    assert [(c.kind, c.sign, c.wrap) for c in rep.contacts] == [
        (FLIP, -1, False), (FLIP, 1, True)]
    assert not rep.runs


def test_circle_contacts_are_flips():
    rep = report_for("slice_circle(i,1,1)")
    c = contact_at(rep, PI)
    assert c.kind == FLIP and c.sign == -1
    assert np.allclose(c.left_dir, (1.0, 0.0, 0.0), atol=1e-6)
    assert np.allclose(c.right_dir, (-1.0, 0.0, 0.0), atol=1e-6)
    w = contact_at(rep, 0.0)
    assert w.kind == FLIP and w.sign == 1 and w.wrap
    assert rep.tame


def test_sigma_is_semi_tame_at_minus_one():
    rep = report_for("sigma_arc")
    c = contact_at(rep, PI)
    assert c.kind == SEMI_TAME and c.sign == -1
    # arrives along i, departs along j
    assert np.allclose(c.left_dir, (1.0, 0.0, 0.0), atol=1e-6)
    assert np.allclose(c.right_dir, (0.0, 1.0, 0.0), atol=1e-6)
    assert not rep.tame


def test_reflection_moves_the_contact_to_plus_one():
    rep = report_for("sigma_hat")
    c = contact_at(rep, PI)
    assert c.kind == SEMI_TAME and c.sign == 1 and c.value > 0


def test_rocket_has_no_direction_limit():
    rep = report_for("rocket_neg")
    c = contact_at(rep, 0.0)
    assert c.kind == NOT_TAME and c.sign == -1
    assert c.right_dir is None


def samples_through_minus_one(knot):
    """One Samples segment on [0, 10] through (-1, 0.3 i), through -1 at
    its knot and on to (-1, 0.5 j): a semi-tame contact at -1, where
    |Im| has a corner and the direction turns from i to j."""
    pts = ((-1.0, 0.3, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.5, 0.0))
    return hl.PathSpec(0.0, 10.0, (hl.pathkit.Samples(0.0, 10.0, (0.0, knot, 10.0), pts),))


@pytest.mark.parametrize("knot", [3.7, pytest.param(6.3, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 17: the dip minimiser stops about 1e-7 from a "
    "corner at t = 6.3, where the path is not real, and the contact is dropped"))])
def test_a_semi_tame_contact_at_a_samples_knot_is_found(knot):
    spec = samples_through_minus_one(knot)
    (contact,) = hl.obstruct_path(spec)[1].contacts
    assert contact.kind == SEMI_TAME
    assert contact.t == pytest.approx(knot, abs=1e-6)
    res = hl.lift_path(spec, initial_unit=(1.0, 0.0, 0.0))
    assert (res.status, res.reason) == ("fails_at", SEMI_TAME)


@pytest.mark.parametrize("c", [10.0, pytest.param(100.0, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 18: three ladder directions agree within "
    "THETA_TOL about 1.3e-6 from the limits -i and i, which reads as semi-tame")), 1000.0])
def test_a_flip_whose_direction_turns_fast_is_a_flip(c):
    # 1 + (sin t) i + c (1 - cos t) j crosses the axis at t = 0, where
    # its direction limits are exactly -i and i
    arc = hl.pathkit.Arc(-1.0, 1.0, (1.0, 0.0, c, 0.0), (0.0, 0.0, -c, 0.0),
                         (0.0, 1.0, 0.0, 0.0), -1.0, 1.0)
    (contact,) = hl.obstruct_path(hl.PathSpec(-1.0, 1.0, (arc,)))[1].contacts
    assert contact.kind == FLIP
    assert contact.t == pytest.approx(0.0, abs=1e-9)


def test_one_sided_direction_on_the_rocket():
    spec = hl.demo("rocket_neg").path
    assert hl.one_sided_direction(spec, 0.0, +1) is None
    # approaching t=1 the spin phase settles at a full turn
    u = hl.one_sided_direction(spec, 1.0, -1)
    assert u is not None and np.allclose(u, (1.0, 0.0, 0.0), atol=1e-5)


def test_lambda_loop_classification():
    rep = report_for("lambda_loop")
    assert contact_at(rep, 1.0).kind == BOUNCE
    assert contact_at(rep, 5.0 + PI / 2).kind == FLIP
    assert rep.tame and rep.companion_unique


def test_three_exp_runs_and_intervals():
    rep = report_for("three_exp")
    assert len(rep.runs) == 2
    (r1, r2) = sorted(rep.runs, key=lambda r: r.t0)
    assert r1.sign == -1 and r2.sign == 1
    assert r1.t0 == pytest.approx(PI, abs=1e-3)
    assert r1.t1 == pytest.approx(3 * PI, abs=1e-3)
    assert len(rep.big_arcs) == 2
    assert len(rep.intervals) == 2
    assert all(iv.non_unique for iv in rep.intervals)
    assert not rep.companion_unique
    # a run admits both continuations; the directive decides
    for iv in rep.intervals:
        assert classify_interval(iv) == BOUNCE
        assert classify_interval(iv, "flip") == FLIP
        assert classify_interval(iv, "bounce") == BOUNCE


def test_run_kinds_follow_classify_interval():
    rep = report_for("three_exp")
    held = [r for iv in rep.intervals for r in iv.runs]
    assert sorted(r.t0 for r in held) == sorted(r.t0 for r in rep.runs)
    for directives in itertools.product((FLIP, BOUNCE, None), repeat=len(rep.intervals)):
        kinds = run_kinds(rep, directives)
        assert len(kinds) == len(rep.runs)
        for m, iv in enumerate(rep.intervals):
            for r in iv.runs:
                assert kinds[rep.runs.index(r)] == classify_interval(iv, directives[m])
    with pytest.raises(ValueError):
        run_kinds(rep, ("sideways",))


def test_a_directive_of_no_kind_raises_on_a_loop_without_runs():
    # lambda_loop's axis intervals are unique: a directive there picks
    # nothing, but one that names no kind is an error, not ignored
    rep = report_for("lambda_loop")
    assert not rep.runs and not any(iv.non_unique for iv in rep.intervals)
    assert [classify_interval(iv, d) for iv in rep.intervals for d in DIRECTIVES] == [
        iv.kind for iv in rep.intervals for _d in DIRECTIVES]
    for iv in rep.intervals:
        with pytest.raises(ValueError, match="unknown directive 'flop'"):
            classify_interval(iv, "flop")
    spec = hl.demo("lambda_loop").path
    with pytest.raises(ValueError, match="unknown directive 'flop'"):
        hl.analyze_loop(spec, ("flop",))
    with pytest.raises(ValueError, match="unknown directive 'flop'"):
        hl.lift_path(spec, directives=("flop",))


def test_runs_in_no_interval_bounce():
    # the open three_exp ends on its second run, which no interval holds
    rep = report_for("three_exp", closed=False)
    held = {r.t0 for iv in rep.intervals for r in iv.runs}
    loose = [k for k, r in enumerate(rep.runs) if r.t0 not in held]
    assert loose
    for directives in itertools.product((FLIP, BOUNCE, None), repeat=len(rep.intervals)):
        kinds = run_kinds(rep, directives)
        assert all(kinds[k] == BOUNCE for k in loose)
    # with no interval every run bounces, and a directive naming no
    # interval is an error, not ignored
    assert run_kinds(replace(rep, intervals=())) == (BOUNCE,) * len(rep.runs)
    with pytest.raises(ValueError):
        run_kinds(replace(rep, intervals=()), (FLIP, FLIP))


def test_interval_members_match_a_scan_of_all_keys():
    # an interval holds the runs whose parameter t0, or t0 +- period, lies
    # in it widened by find_obstructions' edge tolerance
    checked = 0
    for label, spec in corpus_paths():
        sp, _sampling = sample_path(spec)
        span = spec.b - spec.a
        edge_tol = config.PARAM_SAME * span
        for closed in (True, False) if spec.closed else (False,):
            rep = hl.find_obstructions(sp, replace(spec, closed=closed))
            for iv in rep.intervals:
                def inside(t):
                    return any(iv.t0 - edge_tol <= tt <= iv.t1 + edge_tol
                               for tt in (t, t + span, t - span))
                assert iv.runs == tuple(r for r in rep.runs if inside(r.t0)), label
                checked += 1
    assert checked > 300


def test_meridians_mixed_contacts():
    rep = report_for("meridians")
    kinds = sorted(c.kind for c in rep.contacts)
    assert kinds == [FLIP, SEMI_TAME]
    flip = next(c for c in rep.contacts if c.kind == FLIP)
    assert flip.sign == -1 and 2.8 < flip.t < 2.9
    joint = next(c for c in rep.contacts if c.kind == SEMI_TAME)
    assert joint.wrap and joint.sign == 1


def test_open_path_endpoint_contacts():
    # opening the circle turns the basepoint contact into endpoint ones
    rep = report_for("slice_circle(i,1,1)", closed=False)
    kinds = {round(c.t, 3): c.kind for c in rep.contacts}
    assert kinds[round(PI, 3)] == FLIP
    end_kinds = [k for t, k in kinds.items() if t != round(PI, 3)]
    assert end_kinds and all(k == "endpoint_tame" for k in end_kinds)


@pytest.mark.parametrize("d", [1e-9, 1e-7, 1e-6])
def test_only_a_real_set_at_an_end_of_an_open_path_lacks_a_limit(d):
    # the arc starts d turns before its crossing at pi, more than the
    # seam's tolerance away: that crossing is a flip, and only the end at
    # 2 pi, on the axis, is an endpoint contact
    circle = hl.demo("slice_circle(i,1,1)").path
    spec = hl.subpath(circle, PI - d * 2 * PI, 2 * PI)
    rep = hl.find_obstructions(sample_path(spec)[0], spec)
    assert [c.kind for c in rep.contacts] == [FLIP, ENDPOINT_TAME]
    assert abs(rep.contacts[0].t - PI) < 1e-9


def test_interval_sign_and_wrap_on_circle():
    rep = report_for("slice_circle(i,1,1)")
    signs = sorted(iv.sign for iv in rep.intervals)
    assert signs == [-1, 1]
    assert any(iv.wrap for iv in rep.intervals)


@pytest.mark.parametrize("reverse", [False, True])
def test_real_sample_at_one_end_is_the_wrap_contact(reverse):
    # the path closes within the join tolerance, but its value is real
    # at a and just off the axis at b (or the other way round once
    # reversed): the one real item sits at a single end and is still the
    # wrap contact, at a
    pts = [(1.0, 0.9e-9, 0.0, 0.0), (0.0, 1.0, 1.0, 0.0),
           (0.0, 1.0, -1.0, 0.0), (1.0, 1.5e-9, 0.0, 0.0)]
    segs = tuple(hl.pathkit.Line(float(k), k + 1.0, pts[k], pts[k + 1]) for k in range(3))
    spec = hl.PathSpec(0.0, 3.0, segs, closed=True)
    if reverse:
        spec = hl.reverse(spec)
    sampled, _sampler = sample_path(spec)
    assert sampled.real[0] != sampled.real[-1]
    rep = hl.find_obstructions(sampled, spec)
    assert [(c.t, c.wrap) for c in rep.contacts] == [(0.0, True)]
    assert not rep.runs


def test_report_json_is_serialisable():
    import json

    rep = report_for("three_exp")
    doc = to_json(rep)
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["tame"] is False
    assert len(back["contacts"]) == len(rep.contacts)
    assert len(back["intervals"]) == 2


def reference_h0_for(t, marks, edge_tol, cap):
    """The per-request walk that _limit_h0s replaced: from where t sorts
    among marks, step outwards on each side to the first mark farther
    than edge_tol; distances grow monotonically on either side."""
    nearest = math.inf
    i = int(np.searchsorted(marks, t))
    for step, k in ((-1, i - 1), (1, i)):
        while 0 <= k < len(marks):
            d = abs(t - marks[k])
            if d > edge_tol:
                nearest = min(nearest, d)
                break
            k += step
    return min(cap, nearest / 2.0) if math.isfinite(nearest) else cap


def assert_h0s_match_the_walk(ts, marks, edge_tol, cap, h0s):
    want = [reference_h0_for(t, marks, edge_tol, cap) for t in ts]
    assert np.array(h0s).tobytes() == np.array(want, dtype=float).tobytes()


def test_limit_h0s_match_the_walk_on_the_corpus(monkeypatch):
    # every batch of requests find_obstructions makes, closed and open
    requests = []
    limit_h0s = obstruction._limit_h0s

    def checked(*args):
        h0s = limit_h0s(*args)
        assert_h0s_match_the_walk(*args, h0s)
        requests.append(len(h0s))
        return h0s

    monkeypatch.setattr(obstruction, "_limit_h0s", checked)
    for _label, spec in corpus_paths():
        sp, _sampling = sample_path(spec)
        for closed in (True, False) if spec.closed else (False,):
            hl.find_obstructions(sp, replace(spec, closed=closed))
    assert sum(requests) > 500


def through_zero(t0, closed):
    """q(t) = (t - t0) + (t - t0)^2 i on [0, 1], which passes through 0
    at t0 with |Im q| / |q| about |t - t0|, closed by a line from its end
    back to its start on [1, 2]."""
    s = PolyFn((1.0, -t0))
    curve = SliceCurve(0.0, 1.0, (0.0, 1.0, 0.0, 0.0), s, PolyFn((1.0, -2.0 * t0, t0 * t0)))
    if not closed:
        return PathSpec(0.0, 1.0, (curve,))
    ends = curve.values([1.0, 0.0])
    back = Line(1.0, 2.0, tuple(ends[0].tolist()), tuple(ends[1].tolist()))
    return PathSpec(0.0, 2.0, (curve, back), closed=True)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("t0", [0.3, 0.4, 0.7, 0.123456])
def test_a_path_through_zero_raises_at_any_evaluated_value(t0, closed):
    # on the open path at 0.123456 a node of the grid holds the zero;
    # elsewhere only the probes of find_obstructions come near enough to
    # see it, and the error names where
    spec = through_zero(t0, closed)
    questions = [hl.obstruct_path, hl.lift_path] + [hl.analyze_loop] * closed
    for ask in questions:
        with pytest.raises(ZeroOnPath, match="vanishes near") as err:
            ask(spec)
        assert abs(float(str(err.value).rsplit("=", 1)[1]) - t0) < 1e-8


def test_limit_h0s_match_the_walk_across_blocks():
    # clusters of marks closer than edge_tol, marks exactly edge_tol
    # apart (dyadic, so the differences are exact), requests at and
    # beside the marks, more requests than one block, and no marks at all
    rng = np.random.default_rng(7)
    edge_tol = 2.0 ** -30
    centres = rng.uniform(0.0, 10.0, 150)
    dyadic = edge_tol * np.array([2 ** 20, 2 ** 20 + 1, 2 ** 20 + 2, 2 ** 21, 2 ** 21 + 3])
    marks = np.sort(np.concatenate(
        [centres, centres + rng.uniform(0.0, 2 * edge_tol, 150), dyadic]))
    ts = np.concatenate([marks, marks + edge_tol, marks - 3 * edge_tol, rng.uniform(-1, 11, 50)])
    assert len(ts) > 600
    for ts, marks in ((ts, marks), (ts[:5], np.empty(0)), (ts[:0], marks)):
        args = (ts.tolist(), marks, edge_tol, 1e-2)
        assert_h0s_match_the_walk(*args, obstruction._limit_h0s(*args))


def test_limit_h0s_match_the_walk_at_rounding_distances():
    # marks and requests within a few ulps of edge_tol of each other, at
    # scales where t -+ edge_tol rounds, so that where t -+ edge_tol sorts
    # can be a mark off the nearest far mark
    rng = np.random.default_rng(1)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-8, 8)
        edge_tol = scale * 10.0 ** rng.uniform(-12, -1)
        base = rng.uniform(-1, 1, rng.integers(0, 30)) * scale
        marks = np.sort(np.concatenate([
            base, base + edge_tol, base - edge_tol,
            np.nextafter(base + edge_tol, np.inf), np.nextafter(base - edge_tol, -np.inf),
            base + rng.integers(-3, 4, len(base)) * np.spacing(base)]))
        ts = np.concatenate([marks, marks + edge_tol, marks - edge_tol,
                             np.nextafter(marks + edge_tol, np.inf),
                             np.nextafter(marks - edge_tol, -np.inf),
                             rng.uniform(-1.2, 1.2, 20) * scale])
        args = (ts.tolist(), marks, edge_tol, 1e-3 * scale)
        assert_h0s_match_the_walk(*args, obstruction._limit_h0s(*args))


def reference_axis_geometry(spec, contacts, runs, edge_tol):
    """(big_arcs, interval fields) as find_obstructions built them before
    it read them off the order of the real items: a cursor walk cuts the
    domain into arcs between the real items, the arcs whose end values
    have opposite signs are the big arcs, and each gap between
    consecutive big arcs holds the items whose parameter t, or
    t +- period, lies in it widened by edge_tol.  Each item's sign
    stands in for its value, and the wrap run's sign for the values
    beside it."""
    bounds = sorted([(c.t, c.t, c.sign) for c in contacts if not c.wrap]
                    + [(r.t0, r.t1, r.sign) for r in runs if not r.wrap],
                    key=lambda x: x[0])
    wrap_contact = next((c for c in contacts if c.wrap), None)
    wrap_run = next((r for r in runs if r.wrap), None)

    arcs = []  # (t_start, t_end, left sign | None, right sign | None)
    cursor, left = spec.a, None
    if wrap_contact is not None:
        left = wrap_contact.sign
    if wrap_run is not None:
        cursor, left = spec.a + (wrap_run.t1 - spec.b), wrap_run.sign
    for t0, t1, sign in bounds:
        if t0 - cursor > edge_tol:
            arcs.append((cursor, t0, left, sign))
        cursor, left = t1, sign
    end = spec.b if wrap_run is None else wrap_run.t0
    if end - cursor > edge_tol:
        right = None
        if wrap_contact is not None:
            right = wrap_contact.sign
        if wrap_run is not None:
            right = wrap_run.sign
        arcs.append((cursor, end, left, right))
    if (spec.closed and wrap_contact is None and wrap_run is None and len(arcs) >= 2
            and arcs[0][0] <= spec.a + edge_tol and arcs[-1][1] >= spec.b - edge_tol):
        first, last = arcs[0], arcs[-1]
        arcs = arcs[1:-1] + [(last[0], spec.b + (first[1] - spec.a), last[2], first[3])]
    big_arcs = tuple((a0, a1) for a0, a1, lv, rv in arcs
                     if lv is not None and rv is not None and lv * rv < 0)

    period = spec.b - spec.a
    pairs = list(zip(big_arcs, big_arcs[1:]))
    if spec.closed and big_arcs:
        pairs.append((big_arcs[-1], big_arcs[0]))
    intervals = []
    for (_a0, a1), (b0, _b1) in pairs:
        g0 = spec.a + (a1 - spec.b) if spec.closed and a1 > spec.b else a1
        g1 = b0 if b0 >= g0 - edge_tol else spec.b + (b0 - spec.a)

        def inside(t):
            return any(g0 - edge_tol <= tt <= g1 + edge_tol
                       for tt in (t, t + period, t - period))

        inner_contacts = tuple(c for c in contacts if inside(c.t))
        inner_runs = tuple(r for r in runs if inside(r.t0))
        wrap = (g1 > spec.b + edge_tol or any(r.wrap for r in inner_runs)
                or any(c.wrap for c in inner_contacts))
        sign = inner_contacts[0].sign if inner_contacts else inner_runs[0].sign
        kinds = [c.kind for c in inner_contacts]
        if inner_runs or any(k in BAD_KINDS for k in kinds):
            kind = UNRESOLVED
        else:
            kind = FLIP if sum(1 for k in kinds if k == FLIP) % 2 == 1 else BOUNCE
        intervals.append((g0, g1, sign, kind, bool(inner_runs), wrap, inner_runs))
    intervals.sort(key=lambda iv: (iv[5], iv[0]))
    return big_arcs, intervals


def interval_fields(iv):
    return (iv.t0, iv.t1, iv.sign, iv.kind, iv.non_unique, iv.wrap, iv.runs)


def assert_report_matches_the_reference(rep, spec, label=""):
    span = spec.b - spec.a
    edge_tol = config.PARAM_SAME * span
    big_arcs, intervals = reference_axis_geometry(spec, rep.contacts, rep.runs, edge_tol)
    assert rep.big_arcs == big_arcs, label
    assert [interval_fields(iv) for iv in rep.intervals] == intervals, label


def test_axis_geometry_matches_the_reference_on_the_corpus():
    arcs = 0
    for label, spec in corpus_paths():
        sp, _sampling = sample_path(spec)
        for closed in (True, False) if spec.closed else (False,):
            spec_c = replace(spec, closed=closed)
            rep = hl.find_obstructions(sp, spec_c)
            assert_report_matches_the_reference(rep, spec_c, f"{label}/{closed}")
            arcs += len(rep.big_arcs)
    assert arcs > 100


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_axis_geometry_matches_the_reference_on_random_loops(seed, turn):
    spec, _winding, _misses = single_slice_loop(np.random.default_rng(seed))
    # the plain loop starts on the axis when it crosses it; the rotated
    # one mostly does not
    for loop in (spec, hl.rotate_basepoint(spec, spec.a + turn * (spec.b - spec.a))):
        sp, _sampling = sample_path(loop)
        for closed in (True, False):
            spec_c = replace(loop, closed=closed)
            assert_report_matches_the_reference(hl.find_obstructions(sp, spec_c), spec_c)


# synthetic items are laid out in units of EDGE_TOL / 2 from a = 0, so
# every parameter and every difference of two is exact: a gap of 2 units
# is exactly edge_tol
EDGE_TOL = 2.0 ** -20
UNIT = EDGE_TOL / 2
GAPS = (1, 2, 3, 40, 5000)
LENGTHS = (0, 0, 40, 3000)  # 0 makes a contact
KINDS = (FLIP, BOUNCE, SEMI_TAME, NOT_TAME)


def synthetic_items(closed, wrap, items, tail):
    """(spec, contacts, runs) as a report holds them.

    items lists (gap before, length, sign, kind) of the non-wrap items in
    order; tail is the gap after the last.  wrap is None, ("contact",
    sign, kind) or ("run", sign, x, y): a wrap run covers x units before
    b and y after it.  Contacts and runs are each sorted, the wrap item
    last, as find_obstructions orders them.
    """
    contacts, runs = [], []
    x, y = (wrap[2], wrap[3]) if wrap and wrap[0] == "run" else (0, 0)
    cursor = y
    for gap, length, sign, kind in items:
        t0 = (cursor + gap) * UNIT
        cursor += gap + length
        if length:
            runs.append(RealRun(t0, cursor * UNIT, sign, None, None))
        else:
            contacts.append(Contact(t0, float(sign), sign, None, None, kind))
    b = (cursor + tail + x) * UNIT
    if wrap and wrap[0] == "contact":
        contacts.append(Contact(0.0, float(wrap[1]), wrap[1], None, None, wrap[2], True))
    elif wrap:
        runs.append(RealRun(b - x * UNIT, b + y * UNIT, wrap[1], None, None, True))
    return SimpleNamespace(a=0.0, b=b, closed=closed), contacts, runs


@st.composite
def synthetic_reports(draw):
    """synthetic_items arguments that keep a report's invariants: sorted,
    disjoint items, at most one wrap item and only on a closed path, and
    on a closed path without one no item within edge_tol of a domain
    end."""
    closed = draw(st.booleans())
    sign = st.sampled_from((-1, 1))
    wrap = None
    if closed:
        wrap = draw(st.one_of(
            st.none(),
            st.tuples(st.just("contact"), sign, st.sampled_from(KINDS)),
            st.tuples(st.just("run"), sign, st.sampled_from((1, 40)), st.sampled_from((1, 40)))))
    # the first and last gap of a closed path without a wrap item are the
    # two halves of one gap across the basepoint; only an open path may
    # have items at its ends
    end_gaps = GAPS if wrap else (3, 40, 5000) if closed else (0,) + GAPS
    items = draw(st.lists(st.tuples(
        st.sampled_from(GAPS), st.sampled_from(LENGTHS), sign, st.sampled_from(KINDS)),
        max_size=10))
    if items:
        items[0] = (draw(st.sampled_from(end_gaps)),) + items[0][1:]
    return closed, wrap, items, draw(st.sampled_from(end_gaps))


@given(synthetic_reports())
@settings(max_examples=300, deadline=None)
# a closed path with a single big arc: two adjacent items of opposite sign
@example((True, None, [(40, 0, 1, FLIP), (1, 0, -1, FLIP)], 40))
# opposite signs exactly edge_tol apart, then more than edge_tol apart
@example((False, None, [(0, 0, 1, BOUNCE), (2, 0, -1, FLIP), (3, 40, 1, FLIP)], 0))
# no items
@example((True, None, [], 40))
@example((False, None, [], 40))
# a lone wrap run and a lone wrap contact
@example((True, ("run", 1, 40, 40), [], 5000))
@example((True, ("contact", -1, FLIP), [], 5000))
# a wrap run and a wrap contact with items of both signs
@example((True, ("run", 1, 40, 1), [(1, 0, -1, FLIP), (2, 40, -1, FLIP), (40, 0, 1, BOUNCE)], 1))
@example((True, ("contact", 1, FLIP), [(40, 0, -1, FLIP), (3, 0, 1, SEMI_TAME)], 2))
def test_axis_geometry_matches_the_reference_on_synthetic_items(args):
    spec, contacts, runs = synthetic_items(*args)
    big_arcs, intervals = obstruction._axis_geometry(spec, contacts, runs, EDGE_TOL)
    want_arcs, want_intervals = reference_axis_geometry(spec, contacts, runs, EDGE_TOL)
    assert big_arcs == want_arcs
    assert [interval_fields(iv) for iv in intervals] == want_intervals
    # every run sits in one interval when there are any
    if intervals and spec.closed:
        held = [r for iv in intervals for r in iv.runs]
        assert sorted(held, key=id) == sorted(runs, key=id)
