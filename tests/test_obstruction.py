"""Detection and classification of contacts with the real axis."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import hyperlog as hl
from hyperlog import obstruction
from hyperlog.obstruction import (
    BOUNCE,
    FLIP,
    NOT_TAME,
    SEMI_TAME,
    classify_interval,
    classify_point,
    report_to_json,
    run_kinds,
)
from hyperlog.pathkit import sample_path

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


def test_runs_in_no_interval_bounce():
    # the open three_exp ends on its second run, which no interval holds
    rep = report_for("three_exp", closed=False)
    held = {r.t0 for iv in rep.intervals for r in iv.runs}
    loose = [k for k, r in enumerate(rep.runs) if r.t0 not in held]
    assert loose
    for directives in itertools.product((FLIP, BOUNCE, None), repeat=len(rep.intervals)):
        kinds = run_kinds(rep, directives)
        assert all(kinds[k] == BOUNCE for k in loose)
    assert run_kinds(replace(rep, intervals=()), (FLIP, FLIP)) == (BOUNCE,) * len(rep.runs)


def test_interval_members_match_a_scan_of_all_keys():
    # an interval holds the contacts and runs whose parameter t, or
    # t +- period, lies in it widened by find_obstructions' edge tolerance
    checked = 0
    for label, spec in corpus_paths():
        sp, _sampling = sample_path(spec)
        span = spec.b - spec.a
        edge_tol = max(10 * 1e-12 * max(1.0, span), 1e-9 * span)
        for closed in (True, False) if spec.closed else (False,):
            rep = hl.find_obstructions(sp, replace(spec, closed=closed))
            for iv in rep.intervals:
                def inside(t):
                    return any(iv.t0 - edge_tol <= tt <= iv.t1 + edge_tol
                               for tt in (t, t + span, t - span))
                assert iv.contacts == tuple(c for c in rep.contacts if inside(c.t)), label
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


def test_interval_sign_and_wrap_on_circle():
    rep = report_for("slice_circle(i,1,1)")
    signs = sorted(iv.sign for iv in rep.intervals)
    assert signs == [-1, 1]
    assert any(iv.wrap for iv in rep.intervals)


def test_report_json_is_serialisable():
    import json

    rep = report_for("three_exp")
    doc = report_to_json(rep)
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
